"""The names the benchmark's tracer patches must exist where it looks them up.

``perfbench/tracer.py`` replaces functions in ``pasrec.cli`` and
``pasrec.evaluation`` (and ``NeighborIndex.save``/``load``) by name. A name
dropped or renamed in the package would otherwise fail only in a traced
benchmark run; here it fails in the test suite. The tracer is imported from
its file and not changed.
"""
import importlib.util
from pathlib import Path

import pytest

from pasrec.similarity import NeighborIndex

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patch_points(tracer) -> list[tuple[object, str]]:
    points = [(owner, attr) for _, owners, attr, _ in tracer._TARGETS for owner in owners]
    return points + [(NeighborIndex, "save"), (NeighborIndex, "load")]


def test_install_patches_every_name_and_uninstall_restores_it(tracer):
    points = patch_points(tracer)
    assert (tracer.evaluation, "make_session_window") in points
    assert (tracer.evaluation, "positive_scores") in points
    for owner, attr in points:
        assert attr in owner.__dict__, f"{owner.__name__} has no {attr!r} for the tracer to patch"
    originals = [owner.__dict__[attr] for owner, attr in points]
    run = tracer.Tracer()
    try:
        run.install()
        for (owner, attr), original in zip(points, originals):
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr} was not patched"
    finally:
        run.uninstall()
    for (owner, attr), original in zip(points, originals):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} was not restored"
