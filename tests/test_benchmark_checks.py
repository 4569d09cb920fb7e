"""The benchmark's dataset check reads ``Dataset``'s views; a change to them
must not move its content digest.

``perfbench/checks.py`` digests a prepared dataset through
``load_dataset``: its sequences, held-out maps, item universe and stats. A
view that changed what it returns would otherwise show only in the
benchmark's output checks; here it fails in the test suite. The checks
module is imported from its file and not changed.
"""
import importlib.util
from pathlib import Path

import pytest

from pasrec.cli import main

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"

# the content digest of the dataset below, recorded when Dataset held its
# sequences and held-out maps as fields
DIGEST = "7f23666fad14576ad8107b8b0af2f06916af54e5397822152c8e4adcac61fd93"


@pytest.fixture
def checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dataset_digest_and_invariants(tmp_path, checks):
    log, out = tmp_path / "log.dat", tmp_path / "data"
    assert main(["-q", "synth", "--out", str(log), "--users", "60", "--items", "40",
                 "--min-len", "3", "--max-len", "12", "--seed", "3"]) == 0
    # two users too short to hold out two items, over items synth never writes
    with log.open("a", encoding="utf-8") as fh:
        fh.write("short1::i0001::5::7\nshort2::i0002::5::9\nshort2::i0003::5::8\n")
    assert main(["-q", "prepare", "--input", str(log), "--out", str(out)]) == 0
    digest, problems = checks.Checker(0).check("dataset", str(out), str(out))
    assert problems == []
    assert digest == DIGEST
