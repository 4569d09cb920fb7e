"""Every similarity value comes from one numerator routine; these tests pin
the values of built indexes to literal per-pair folds over gap histograms
recounted from the sequences, the saved index to digests recorded from the
per-pair implementation, and the index row to the exact reverse bound.
"""
import hashlib
import math
import random
from collections import Counter, defaultdict

import pytest

from conftest import count_corpus, full_index, pair_rows, random_corpus, row_value
from pasrec.domain import SCALINGS, SimilarityParams, UserSequence
from pasrec.ingest import build_dataset
from pasrec.oracle import oracle_bis, oracle_pas
from pasrec.similarity import average_uni_by_gap, build_neighbor_index, scale
from pasrec.synth import SynthConfig, generate


def recount(corpus):
    """Directed gap histograms and user counts recounted from the sequences,
    without the store: hist[i_from, i_to][gap] is the users with
    p(i_to) - p(i_from) = gap, at any distance, and users[item] the users
    holding item."""
    hist = defaultdict(Counter)
    users = Counter()
    for seq in corpus:
        users.update(seq.items)
        for i_from in seq.items:
            for i_to in seq.items:
                if i_from != i_to:
                    hist[i_from, i_to][seq.position[i_to] - seq.position[i_from]] += 1
    return dict(hist), users


def union_size(hist, users, i_from, i_to):
    """|U_from ∪ U_to| of a co-occurring pair of ``recount``."""
    return users[i_from] + users[i_to] - sum(hist[i_from, i_to].values())


# Reference folds: one loop over a recounted directed histogram per value,
# with the bounds compared as floats. They agree with the engine wherever
# rho*ell rounds to the same floor as the exact product, as for every rho
# used here.
def reference_bis(gaps, union, ell, rho):
    lo = -rho * ell
    return sum(c for g, c in gaps.items() if lo <= g <= ell) / union


def reference_pas_uni(gaps, union, ell, k, t, scaling, w):
    threshold = scale(k - t, scaling, w)
    return sum(c for g, c in gaps.items() if threshold < g <= ell) / union


def reference_pas(gaps, union, params, t):
    lo = -params.rho * params.ell
    threshold = scale(params.k - t, params.scaling, params.w)
    n_bis = sum(c for g, c in gaps.items() if lo <= g <= params.ell)
    n_uni = sum(c for g, c in gaps.items() if threshold < g <= params.ell)
    return ((1.0 - params.lam) * n_bis + params.lam * n_uni) / union


def reference_cosine(gaps, users_from, users_to):
    return sum(gaps.values()) / math.sqrt(users_from * users_to)


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
    return count_corpus(synth_sequences(), ell_max=6)


@pytest.fixture(scope="module")
def synth_recount():
    return recount(synth_sequences())


def test_scalar_views_match_reference_folds():
    rng = random.Random(23)
    for trial in range(15):
        corpus = random_corpus(rng)
        store = count_corpus(corpus, ell_max=6)
        hist, users = recount(corpus)
        ell = rng.randint(1, 6)
        rho = rng.choice((0.2, 0.5))
        lam, w = rng.choice((0.0, 0.3, 1.0)), rng.choice((1.5, 2.0, 2.5))
        for scaling in SCALINGS:
            params = SimilarityParams(ell=ell, rho=rho, lam=lam, scaling=scaling, w=w)
            bis, pas, uni = (pair_rows(full_index(store, params, measure))
                             for measure in ("bis", "pas", "pas_uni"))
            # a pair with a row co-occurs, so it has a recounted histogram
            assert set(bis) == set(pas) == set(uni) <= set(hist)
            for (i_from, i_to), gaps in hist.items():
                union = union_size(hist, users, i_from, i_to)
                assert row_value(bis, i_from, i_to) == reference_bis(gaps, union, ell, rho)
                for t in range(1, ell + 1):
                    assert row_value(pas, i_from, i_to, t) == reference_pas(gaps, union, params, t)
                    assert row_value(uni, i_from, i_to, t) == (
                        reference_pas_uni(gaps, union, ell, ell, t, scaling, w))


@pytest.mark.parametrize("rank_by", ["bis", "max_t"])
@pytest.mark.parametrize("measure", ["bis", "pas", "pas_uni", "cosine"])
@pytest.mark.parametrize("scaling", SCALINGS)
def test_index_entries_match_scalar_functions(synth_store, synth_recount, measure, rank_by,
                                              scaling):
    store = synth_store
    hist, users = synth_recount
    params = SimilarityParams(ell=5, rho=0.5, lam=0.3, scaling=scaling, w=2.5, n_neighbors=6)
    k = params.k
    index = build_neighbor_index(store, params, measure, rank_by=rank_by)

    def reference(i_from, i_to):
        """(ranking score, value, vector) of the pair from the reference folds."""
        gaps = hist[i_from, i_to]
        if measure == "cosine":
            value = reference_cosine(gaps, users[i_from], users[i_to])
            return value, value, ()
        union = union_size(hist, users, i_from, i_to)
        value = reference_bis(gaps, union, params.ell, params.rho)
        if measure == "bis":
            return value, value, ()
        if measure == "pas":
            vector = tuple(reference_pas(gaps, union, params, t) for t in range(1, k + 1))
        else:
            vector = tuple(reference_pas_uni(gaps, union, params.ell, k, t, scaling, params.w)
                           for t in range(1, k + 1))
        return (vector[-1] if measure == "pas_uni" or rank_by == "max_t" else value), value, vector

    # the positional measures pick from the store's gap band, cosine from
    # every co-occurring pair
    candidates = {i_to: [] for i_to in store.items}
    for (i_from, i_to), gaps in hist.items():
        if measure == "cosine" or min(map(abs, gaps)) <= store.ell_max:
            candidates[i_to].append(i_from)
    for target, row in enumerate(index.entries):
        i_to = store.items[target]
        ranked = sorted(((reference(i_from, i_to), i_from) for i_from in candidates[i_to]),
                        key=lambda entry: (-entry[0][0], entry[1]))
        assert [(store.items[nbr], value, vector) for nbr, value, vector in row] == [
            (i_from, value, vector) for (_, value, vector), i_from in ranked[: params.n_neighbors]]


def test_average_uni_by_gap_matches_per_pair_loop(synth_store, synth_recount):
    hist, users = synth_recount
    ell, n_neighbors, w = 6, 8, 2.5
    params = SimilarityParams(ell=ell, rho=0.2, lam=1.0, scaling="h_a", w=w,
                              n_neighbors=n_neighbors)
    index = build_neighbor_index(synth_store, params, "pas_uni")
    pairs = [(index.items[nbr], index.items[target])
             for target, row in enumerate(index.entries)
             for nbr, _value, _vector in row]
    want = {}
    for scaling in SCALINGS:
        means = []
        for gap in range(ell):
            t = ell - gap
            values = [reference_pas_uni(hist[pair], union_size(hist, users, *pair), ell, ell, t,
                                        scaling, w) for pair in pairs]
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
    store = count_corpus(corpus, ell_max=50)
    # bis in column 0 and, at lam=0, pas at t=1 in column 1 of the row a -> b
    for measure, column in (("bis", 0), ("pas", 1)):
        rows = pair_rows(build_neighbor_index(store, params, measure))
        assert row_value(rows, "a", "b", column) == 0.5
    assert oracle_bis(corpus, "a", "b", 50, 0.58) == 0.5
    assert oracle_pas(corpus, "a", "b", params, 1) == 0.5
