import json
from dataclasses import asdict

import numpy as np
import pytest

from pasrec.domain import (
    SimilarityParams,
    UserSequence,
    make_session_window,
)


def seq(*items: str) -> UserSequence:
    return UserSequence.from_items("u", list(items))


class TestSessionWindow:
    def test_long_history_keeps_last_k(self):
        window = make_session_window(seq("a", "b", "c", "d", "e", "f"), k=5)
        assert window.items == ("b", "c", "d", "e", "f")
        assert window.window_position["f"] == 5
        assert window.window_position["b"] == 1

    def test_short_history_is_target_anchored(self):
        window = make_session_window(seq("a", "b"), k=5)
        assert window.items == ("a", "b")
        assert window.window_position["b"] == 5
        assert window.window_position["a"] == 4

    def test_single_item(self):
        window = make_session_window(seq("a"), k=1)
        assert window.items == ("a",)
        assert window.window_position["a"] == 1

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="empty history"):
            make_session_window(UserSequence.from_items("u", []), k=3)

    def test_positions_encode_distance_to_target(self):
        for n in range(1, 9):
            for k in range(1, 9):
                items = [f"x{j}" for j in range(n)]
                window = make_session_window(seq(*items), k=k)
                assert len(window.items) == min(k, n)
                for j, item in enumerate(window.items):
                    position = window.window_position[item]
                    assert 1 <= position <= k
                    distance = len(window.items) - j
                    assert k - position == distance - 1

    def test_deterministic_and_order_preserving(self):
        s = seq("a", "b", "c", "d")
        first = make_session_window(s, k=3)
        second = make_session_window(s, k=3)
        assert first.items == second.items == ("b", "c", "d")
        assert first.window_position == second.window_position


class TestUserSequence:
    def test_positions_are_one_based_and_contiguous(self):
        s = seq("x", "y", "z")
        assert [s.position[item] for item in s.items] == [1, 2, 3]

    def test_duplicate_items_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            seq("a", "b", "a")


class TestSimilarityParams:
    def test_k_is_coupled_to_ell(self):
        assert SimilarityParams(ell=7).k == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(ell=0),
            dict(ell=5, rho=0.0),
            dict(ell=5, rho=1.0),
            dict(ell=5, lam=-0.1),
            dict(ell=5, lam=1.1),
            dict(ell=5, scaling="h_d"),
            dict(ell=5, w=1.0),
            dict(ell=5, n_neighbors=0),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimilarityParams(**kwargs)

    def test_numpy_scalars_accepted(self):
        params = SimilarityParams(ell=np.int64(3), rho=np.float64(0.5), lam=np.float32(0.25),
                                  w=np.int32(3), n_neighbors=np.uint8(4))
        assert (params.ell, params.rho, params.lam, params.w, params.n_neighbors) == (3, 0.5, 0.25, 3, 4)
        # stored as Python numbers, which an index header can hold
        assert json.loads(json.dumps(asdict(params))) == asdict(params)

