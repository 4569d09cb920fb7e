"""Shared vocabulary: ordered user sequences, similarity hyperparameters, and
the session window used at prediction time.

All types here are immutable after construction and safe to share across
threads and processes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral, Real

SCALINGS = ("h_a", "h_b", "h_c")
MEASURES = ("bis", "pas", "pas_uni", "cosine")


def is_number(value: object, kind: type) -> bool:
    """Whether ``value`` is a ``kind`` (Integral or Real) but not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class UserSequence:
    """A user's chronologically ordered, deduplicated item list.

    ``position`` maps each item to its 1-based index in ``items``.
    """

    user: str
    items: tuple[str, ...]
    position: dict[str, int] = field(compare=False)

    @classmethod
    def from_items(cls, user: str, items: list[str] | tuple[str, ...]) -> "UserSequence":
        items = tuple(items)
        position = {item: j + 1 for j, item in enumerate(items)}
        if len(position) != len(items):
            raise ValueError(f"duplicate items in sequence for user {user!r}")
        return cls(user=user, items=items, position=position)


@dataclass(frozen=True)
class SimilarityParams:
    """Hyperparameters of the similarity family.

    ell       valid distance: maximum forward position gap that counts.
    rho       reverse factor in (0, 1): fraction of ell tolerated backwards.
    lam       tradeoff in [0, 1] between the bidirectional indicator (lam=0)
              and the position-aware indicator (lam=1).
    scaling   threshold scaling function, one of h_a | h_b | h_c.
    w         scaling parameter, > 1.
    n_neighbors  cap on the per-item nearest-neighbor set.

    The session-window length k is coupled to ell (k = ell).
    """

    ell: int
    rho: float = 0.2
    lam: float = 0.5
    scaling: str = "h_a"
    w: float = 2.0
    n_neighbors: int = 20

    def __post_init__(self) -> None:
        if not (is_number(self.ell, Integral) and self.ell >= 1):
            raise ValueError(f"ell must be a positive integer, got {self.ell!r}")
        if not (is_number(self.rho, Real) and 0.0 < self.rho < 1.0):
            raise ValueError(f"rho must be a real number in (0, 1), got {self.rho!r}")
        if not (is_number(self.lam, Real) and 0.0 <= self.lam <= 1.0):
            raise ValueError(f"lam must be a real number in [0, 1], got {self.lam!r}")
        if self.scaling not in SCALINGS:
            raise ValueError(f"unknown scaling {self.scaling!r}, expected one of {SCALINGS}")
        if not (is_number(self.w, Real) and self.w > 1.0):
            raise ValueError(f"w must be a real number > 1, got {self.w!r}")
        if not (is_number(self.n_neighbors, Integral) and self.n_neighbors >= 1):
            raise ValueError(f"n_neighbors must be an integer >= 1, got {self.n_neighbors!r}")
        for name, plain in (("ell", int), ("rho", float), ("lam", float), ("w", float), ("n_neighbors", int)):
            if not isinstance(getattr(self, name), (int, float)):  # a numpy scalar, which JSON cannot write
                object.__setattr__(self, name, plain(getattr(self, name)))

    @property
    def k(self) -> int:
        """Session-window length, always equal to the valid distance."""
        return self.ell


@dataclass(frozen=True)
class SessionWindow:
    """The latest items of a user's history preceding the prediction point.

    ``window_position`` maps each window item to L in {1..k}, anchored at the
    prediction target: the most recent item always has L = k, so k - L equals
    the item's distance to the target minus one, regardless of how short the
    history is.
    """

    items: tuple[str, ...]
    window_position: dict[str, int] = field(compare=False)
    k: int = 0


def make_session_window(sequence: UserSequence, k: int) -> SessionWindow:
    """Take the last min(k, len) items of ``sequence`` as the active window.

    Raises ValueError("empty history") for an empty sequence.
    """
    if k < 1:
        raise ValueError(f"window length k must be >= 1, got {k}")
    if not sequence.items:
        raise ValueError("empty history")
    tail = sequence.items[-k:]
    n = len(tail)
    # distance d to the target is 1 for the last item, so L = k - d + 1
    window_position = {item: k - (n - j) + 1 for j, item in enumerate(tail)}
    return SessionWindow(items=tail, window_position=window_position, k=k)
