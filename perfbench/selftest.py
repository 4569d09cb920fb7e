"""Show that each output check bites: build small pasrec outputs with the
command line, corrupt a copy of each kind, and check both.

    python3 perfbench/selftest.py

Run from the root of a pasrec checkout. Exits 1 if a check misses a
corruption or flags a clean output.
"""
from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from pasrec import cli  # noqa: E402

from checks import ORACLE_SAMPLES, Checker, pick_entries  # noqa: E402
from pasrec.similarity import NeighborIndex  # noqa: E402

SEED = 7


def _make_outputs(work: str) -> dict[str, str]:
    paths = {
        "log": os.path.join(work, "log.txt"),
        "dataset": os.path.join(work, "data"),
        "index": os.path.join(work, "pas.idx"),
        "report": os.path.join(work, "eval"),
        "sparsity": os.path.join(work, "sparsity"),
    }
    commands = [
        ["synth", "--out", paths["log"], "--users", "80", "--items", "40", "--min-len", "5",
         "--max-len", "15", "--seed", str(SEED)],
        ["prepare", "--input", paths["log"], "--out", paths["dataset"]],
        ["build-index", "--dataset", paths["dataset"], "--out", paths["index"], "--measure", "pas",
         "--ell", "5", "--n-neighbors", "5"],
        ["evaluate", "--dataset", paths["dataset"], "--index", paths["index"], "--split", "test",
         "--out", paths["report"]],
        ["sparsity-report", "--dataset", paths["dataset"], "--out", paths["sparsity"], "--ell", "5",
         "--n-neighbors", "5"],
    ]
    for argv in commands:
        if cli.main(["-q", *argv]) != 0:
            raise SystemExit(f"selftest: pasrec {argv[0]} failed")
    return paths


def _copy(path: str, work: str, name: str) -> str:
    dest = os.path.join(work, name)
    (shutil.copytree if os.path.isdir(path) else shutil.copyfile)(path, dest)
    return dest


def _rewrite(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    edit(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def corrupt_index(path: str) -> str:
    """Shift one sampled entry's stored value by 1e-6."""
    target, slot = pick_entries(NeighborIndex.load(path), random.Random(SEED), ORACLE_SAMPLES)[0]

    def edit(lines):
        body = [n for n, line in enumerate(lines) if not line.startswith("#")]
        rows = [n for n in body if lines[n].split("\t", 1)[0] == str(target)]
        fields = lines[rows[slot]].split("\t")
        fields[2] = repr(float(fields[2]) + 1e-6)
        lines[rows[slot]] = "\t".join(fields)

    _rewrite(path, edit)
    return f"entry ({target}, slot {slot}) value +1e-6"


def corrupt_report(path: str) -> str:
    """Drop one user from the report row's user count."""
    report = os.path.join(path, "report.json")
    with open(report, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["rows"][0]["n_users"] -= 1
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    return "row 0 n_users - 1"


def corrupt_split(path: str) -> str:
    """Point one test-split line at another item."""
    def edit(lines):
        user, item = lines[0].rstrip("\n").split("\t")
        other = lines[1].rstrip("\n").split("\t")[1]
        lines[0] = f"{user}\t{other if other != item else item + 'x'}\n"

    _rewrite(os.path.join(path, "test.tsv"), edit)
    return "test.tsv line 1 item replaced"


def corrupt_sparsity(path: str) -> str:
    """Set one profile value outside [0, 1]."""
    def edit(lines):
        last = lines[-1].rstrip("\n").split("\t")
        last[1] = "1.5"
        lines[-1] = "\t".join(last) + "\n"

    _rewrite(os.path.join(path, "sparsity.tsv"), edit)
    return "last row h_a = 1.5"


def main() -> int:
    os.makedirs(".perfbench_work", exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=".perfbench_work")
    try:
        paths = _make_outputs(work)
        checker = Checker(SEED)
        cases = (
            ("index", paths["index"], corrupt_index, 0),
            ("report", paths["report"], corrupt_report, 1),
            ("dataset", paths["dataset"], corrupt_split, 0),
            ("sparsity", paths["sparsity"], corrupt_sparsity, 5),
        )
        missed = 0
        print(f"{'output':9s} {'corruption':36s} {'digest':9s} problems")
        for kind, path, corrupt, rows in cases:
            clean_digest, clean_problems = checker.check(kind, path, paths["dataset"], rows)
            if clean_problems:
                print(f"{kind}: clean output flagged: {clean_problems}")
                missed += 1
            bad = _copy(path, work, f"bad-{kind}")
            what = corrupt(bad)
            # a corrupted split is its own dataset; other outputs use the clean one
            dataset = bad if kind == "dataset" else paths["dataset"]
            digest, problems = checker.check(kind, bad, dataset, rows)
            changed = digest != clean_digest
            print(f"{kind:9s} {what:36s} {'changed' if changed else 'SAME':9s} "
                  f"{problems[0][:90] if problems else '-'}")
            # splits have no invariant a single changed item breaks: the digest must catch it
            if not changed or (kind != "dataset" and not problems):
                missed += 1
        print("selftest: every corruption flagged" if not missed else f"selftest: {missed} missed")
        return 1 if missed else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
