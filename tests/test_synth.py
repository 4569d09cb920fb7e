import pytest

from pasrec.ingest import ColumnSchema, parse_interactions
from pasrec.synth import SynthConfig, generate, write_log


def sequences_by_user(records):
    out = {}
    for user, item in zip(*records.ids()):
        out.setdefault(user, []).append(item)
    return out


class TestGenerate:
    def test_pure_signal_walks_the_planted_cycle(self):
        config = SynthConfig(n_users=20, n_items=5, seq_length_range=(5, 5), signal=1.0, seed=3)
        by_user = sequences_by_user(generate(config))
        cycles = {tuple(items) for items in by_user.values()}
        # every full-length walk is a rotation of the same 5-cycle
        reference = next(iter(cycles))
        rotations = {tuple(reference[j:] + reference[:j]) for j in range(5)}
        assert cycles <= rotations

    def test_same_seed_is_identical(self):
        config = SynthConfig(n_users=30, n_items=40, seq_length_range=(4, 9), signal=0.5, seed=11)
        assert generate(config) == generate(config)

    def test_different_seed_differs(self):
        base = dict(n_users=30, n_items=40, seq_length_range=(4, 9), signal=0.5)
        assert generate(SynthConfig(seed=1, **base)) != generate(SynthConfig(seed=2, **base))

    def test_lengths_in_range_and_no_duplicates(self):
        config = SynthConfig(
            n_users=50, n_items=25, seq_length_range=(3, 12), signal=0.7,
            reverse_noise=0.2, seed=7,
        )
        for user, items in sequences_by_user(generate(config)).items():
            assert 3 <= len(items) <= 12
            assert len(set(items)) == len(items)

    def test_walk_that_uses_up_the_catalog_is_not_cut_short(self):
        # each walk holds the whole catalog, so a late step may draw only
        # used items in all its retries
        config = SynthConfig(n_users=300, n_items=20, seq_length_range=(20, 20), seed=1)
        by_user = sequences_by_user(generate(config))
        assert len(by_user) == 300
        assert all(len(set(items)) == len(items) == 20 for items in by_user.values())

    def test_zero_signal_still_valid_and_deterministic(self):
        config = SynthConfig(n_users=15, n_items=30, seq_length_range=(3, 6), signal=0.0, seed=9)
        records = generate(config)
        assert records == generate(config)
        for items in sequences_by_user(records).values():
            assert len(set(items)) == len(items)

    def test_timestamps_consecutive_per_user(self):
        config = SynthConfig(n_users=5, n_items=20, seq_length_range=(4, 6), seed=2)
        per_user = {}
        records = generate(config)
        for user, timestamp in zip(records.ids()[0], records.timestamps.tolist()):
            per_user.setdefault(user, []).append(timestamp)
        for stamps in per_user.values():
            assert stamps == list(range(len(stamps)))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_users=1, n_items=5, seq_length_range=(2, 5)),
            dict(n_users=1, n_items=5, signal=1.5),
            dict(n_users=1, n_items=5, reverse_noise=-0.1),
            dict(n_users=0, n_items=5),
            dict(n_users=1, n_items=4, seq_length_range=(5, 9)),
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(**kwargs)


def test_log_round_trips_through_ingest(tmp_path):
    config = SynthConfig(n_users=10, n_items=15, seq_length_range=(3, 5), seed=4)
    records = generate(config)
    path = tmp_path / "log.dat"
    write_log(records, str(path))
    with open(path, encoding="utf-8") as fh:
        parsed = parse_interactions(fh, ColumnSchema.movielens())
    assert parsed == records
