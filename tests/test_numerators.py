"""Every similarity value comes from one numerator routine; these tests pin it
to the literal per-pair loops, to the scalar functions, to index digests
recorded from the per-pair implementation, and to the exact reverse bound.
"""
import hashlib
import math
import random

import pytest

from conftest import item_pairs, random_corpus
from pasrec.domain import SCALINGS, SimilarityParams, UserSequence
from pasrec.ingest import build_dataset
from pasrec.oracle import oracle_bis, oracle_pas
from pasrec.similarity import (
    average_uni_by_gap,
    bis_similarity,
    build_neighbor_index,
    cosine_similarity,
    count_pairs,
    pas_similarity,
    pas_uni_similarity,
    scale,
)
from pasrec.synth import SynthConfig, generate


# Reference folds: one loop over the directed histogram per value, with the
# bounds compared as floats. They agree with the engine wherever rho*ell
# rounds to the same floor as the exact product, as for every rho used here.
def reference_bis(pair, ell, rho):
    if pair.union_users == 0:
        return 0.0
    lo = -rho * ell
    return sum(c for g, c in pair.gap_counts.items() if lo <= g <= ell) / pair.union_users


def reference_pas_uni(pair, ell, k, t, scaling, w):
    if pair.union_users == 0:
        return 0.0
    threshold = scale(k - t, scaling, w)
    return sum(c for g, c in pair.gap_counts.items() if threshold < g <= ell) / pair.union_users


def reference_pas(pair, params, t):
    if pair.union_users == 0:
        return 0.0
    lo = -params.rho * params.ell
    threshold = scale(params.k - t, params.scaling, params.w)
    n_bis = sum(c for g, c in pair.gap_counts.items() if lo <= g <= params.ell)
    n_uni = sum(c for g, c in pair.gap_counts.items() if threshold < g <= params.ell)
    return ((1.0 - params.lam) * n_bis + params.lam * n_uni) / pair.union_users


def synth_sequences():
    config = SynthConfig(n_users=150, n_items=60, seq_length_range=(5, 25), signal=0.7,
                         reverse_noise=0.2, seed=7)
    return build_dataset(generate(config)).sequences


DIGEST_PARAMS = SimilarityParams(ell=6, rho=0.5, lam=0.3, scaling="h_b", w=2.5, n_neighbors=8)

# sha256 of the saved index for synth_sequences() at DIGEST_PARAMS, recorded
# from the implementation that folded each pair with its own loop
INDEX_DIGESTS = {
    ("bis", "bis"): "303111866338afaca956cd5b75f13284d8dc3220f2d04b3efd84794c4619cbb2",
    ("bis", "max_t"): "d4c0cadd86ae7f509606f5144fcc526e8646b565e2b5e653ac8c1c3883c6edba",
    ("pas", "bis"): "161c3eab1fad4a4a29ee3085f737a17e869e302f2145dafde78d61c3e0cddd74",
    ("pas", "max_t"): "5e0377529eaee6fc5abdb6727204a7663b99c39c92c6e59b5e2fd05c55559a2d",
    ("pas_uni", "bis"): "5478f4048f508dfc0a33c537f0b9760445bbf9d7859d3f5bef21cf4b0a2f9fe8",
    ("pas_uni", "max_t"): "b726eb7bd7bc303729090df5c83e67f0636b595a6a256e5c11e4f18a10dee934",
    ("cosine", "bis"): "83cb8c8dfbce41bc0409773d634d5335114fd732e574f4b8e3003a50c9a21c1c",
    ("cosine", "max_t"): "9998a7b672e3164ed2717ef83e4debb151df8cbae011fb493e4cbac6578d2d98",
}


@pytest.fixture(scope="module")
def synth_store():
    return count_pairs(synth_sequences(), ell_max=6)


def test_scalar_views_match_reference_folds():
    rng = random.Random(23)
    for trial in range(15):
        store = count_pairs(random_corpus(rng), ell_max=6)
        ell = rng.randint(1, 6)
        rho = rng.choice((0.2, 0.5))
        params = SimilarityParams(ell=ell, rho=rho, lam=rng.choice((0.0, 0.3, 1.0)),
                                  scaling=rng.choice(SCALINGS), w=rng.choice((1.5, 2.0, 2.5)))
        for a, b in item_pairs(store, store.co):
            for i_from, i_to in ((store.items[a], store.items[b]), (store.items[b], store.items[a])):
                stats = store.pair_stats(i_from, i_to)
                assert bis_similarity(stats, ell, rho) == reference_bis(stats, ell, rho)
                for t in range(1, ell + 1):
                    assert pas_similarity(stats, params, t) == reference_pas(stats, params, t)
                    assert pas_uni_similarity(stats, ell, ell, t, params.scaling, params.w) == (
                        reference_pas_uni(stats, ell, ell, t, params.scaling, params.w)
                    )


@pytest.mark.parametrize("rank_by", ["bis", "max_t"])
@pytest.mark.parametrize("measure", ["bis", "pas", "pas_uni", "cosine"])
@pytest.mark.parametrize("scaling", SCALINGS)
def test_index_entries_match_scalar_functions(synth_store, measure, rank_by, scaling):
    store = synth_store
    params = SimilarityParams(ell=5, rho=0.5, lam=0.3, scaling=scaling, w=2.5, n_neighbors=6)
    k = params.k
    index = build_neighbor_index(store, params, measure, rank_by=rank_by)
    candidates = {target: set() for target in range(store.n_items)}
    for a, b in item_pairs(store, store.co if measure == "cosine" else store.gaps):
        candidates[a].add(b)
        candidates[b].add(a)
    for target, row in enumerate(index.entries):
        i_to = store.items[target]

        def rank_score(cand):
            stats = store.pair_stats(store.items[cand], i_to)
            if measure == "cosine":
                return cosine_similarity(stats, store.item_users[cand], store.item_users[target])
            if measure == "pas_uni":
                return pas_uni_similarity(stats, params.ell, k, k, scaling, params.w)
            if measure == "pas" and rank_by == "max_t":
                return pas_similarity(stats, params, k)
            return bis_similarity(stats, params.ell, params.rho)

        ranked = sorted(candidates[target], key=lambda cand: (-rank_score(cand), cand))
        assert [nbr for nbr, _, _ in row] == ranked[: params.n_neighbors]
        for cand, value, vector in row:
            stats = store.pair_stats(store.items[cand], i_to)
            if measure == "cosine":
                assert value == rank_score(cand)
                assert vector == ()
                continue
            assert value == bis_similarity(stats, params.ell, params.rho)
            if measure == "bis":
                assert vector == ()
            elif measure == "pas":
                assert vector == tuple(pas_similarity(stats, params, t) for t in range(1, k + 1))
            else:
                assert vector == tuple(
                    pas_uni_similarity(stats, params.ell, k, t, scaling, params.w)
                    for t in range(1, k + 1)
                )


def test_average_uni_by_gap_matches_per_pair_loop(synth_store):
    ell, n_neighbors, w = 6, 8, 2.5
    params = SimilarityParams(ell=ell, rho=0.2, lam=1.0, scaling="h_a", w=w,
                              n_neighbors=n_neighbors)
    index = build_neighbor_index(synth_store, params, "pas_uni")
    pair_stats = [
        synth_store.pair_stats(synth_store.items[nbr], synth_store.items[target])
        for target, row in enumerate(index.entries)
        for nbr, _value, _vector in row
    ]
    want = {}
    for scaling in SCALINGS:
        means = []
        for gap in range(ell):
            t = ell - gap
            values = [pas_uni_similarity(stats, ell, ell, t, scaling, w) for stats in pair_stats]
            means.append(math.fsum(values) / len(values) if values else 0.0)
        want[scaling] = means
    assert average_uni_by_gap(synth_store, ell=ell, n_neighbors=n_neighbors, w=w) == want


@pytest.mark.parametrize("measure, rank_by", sorted(INDEX_DIGESTS))
def test_saved_index_matches_recorded_digest(tmp_path, synth_store, measure, rank_by):
    path = tmp_path / "index.tsv"
    build_neighbor_index(synth_store, DIGEST_PARAMS, measure, rank_by=rank_by).save(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == INDEX_DIGESTS[measure, rank_by]


def test_reverse_bound_is_exact():
    # 0.58 * 50 is 28.999999999999996 in floats; the band is [-29, 50]
    filler = [f"x{j:02d}" for j in range(29)]
    corpus = [
        UserSequence.from_items("v1", ["b", *filler[:28], "a"]),  # a -> b at gap -29
        UserSequence.from_items("v2", ["b", *filler, "a"]),  # a -> b at gap -30
    ]
    params = SimilarityParams(ell=50, rho=0.58, lam=0.0, n_neighbors=40)
    store = count_pairs(corpus, ell_max=50)
    stats = store.pair_stats("a", "b")
    assert bis_similarity(stats, 50, 0.58) == 0.5
    assert pas_similarity(stats, params, 1) == 0.5
    index = build_neighbor_index(store, params, "bis")
    row = index.entries[index.item_index["b"]]
    assert (index.item_index["a"], 0.5, ()) in row
    assert oracle_bis(corpus, "a", "b", 50, 0.58) == 0.5
    assert oracle_pas(corpus, "a", "b", params, 1) == 0.5
