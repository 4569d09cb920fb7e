"""pasrec benchmark: drives the pasrec command line on synthetic inputs.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds T --trace 0|1

Run from the root of a pasrec checkout; the package is imported from
``src/``. Each run works in a fresh directory under ``.perfbench_work/`` and
removes it at the end.

1. Set-up: ``pasrec synth`` makes the input from the seed, then the
   workload's set-up commands run. This is done at least 5 times, and up to
   9 while the runs sum to under 4 s, each in a fresh process; ``setup_s``
   is the median, scaled like the timed passes below (once when tracing).
2. Timed part: a fresh process runs passes of the workload's commands (see
   ``workloads.py``) until their summed time reaches ``--seconds``. A fixed
   reference loop is timed around every pass and set-up run; the gated
   times are scaled by it to a nominal host speed (``REFERENCE_NOMINAL_S``),
   and the unscaled ones are printed beside them.
3. Checks, outside any timed region: exit codes, content digests (against
   ``digests.json`` for the recorded seed, and across passes and set-up
   runs for every seed), invariants of reports and splits, and sampled index
   entries recomputed with ``pasrec.oracle``. An operation is one command of
   a timed pass plus the checks of its output.

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json;
with ``--trace 1`` passes alternate untraced and traced and the metrics are
the per-layer ones, with the tracing overhead. Human-readable lines come
first; the last line of standard output is one JSON object (one block and
line per workload with ``--workload all``). The exit code is 1 if any check
failed, 2 if the checkout holds no pasrec source.

``--record-digests`` stores this seed's content digests in ``digests.json``
as the reference later runs with the same seed are compared against.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".perfbench_work"
DIGESTS = os.path.join(HERE, "digests.json")
# set-up runs: at least MIN_SETUPS, more while they sum to under SETUP_BUDGET_S
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 5, 9, 4.0
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "wall_norm_s": "s", "peak_rss_mb": "MB", "eval.users_per_norm_s": "1/s",
}
# Set-up runs and timed passes are scaled to the host speed at which
# child.host_reference() takes this long (about its median on a 2-vCPU Xeon
# host at the commit that added the benchmark). The host's speed drifts by
# tens of percent within seconds to minutes, and every command slows with
# it; scaling removes that drift.
REFERENCE_NOMINAL_S = 0.014

# per-layer metric -> unit; the values are filled in by layer_metrics()
PER_LAYER_UNITS = {
    "similarity.count_pairs_s": "s",
    "similarity.rss_after_count_mb": "MB",
    "similarity.co_pairs": "count",
    "similarity.band_pairs": "count",
    "similarity.band_share": "ratio",
    "similarity.build_index_s": "s",
    "similarity.build_index_calls": "count",
    "similarity.index_entries": "count",
    "similarity.neighbor_fill": "ratio",
    "similarity.repeat_selections": "count",
    "similarity.index_save_s": "s",
    "similarity.index_load_s": "s",
    "similarity.index_bytes": "bytes",
    "similarity.sparsity_profile_s": "s",
    "ingest.parse_s": "s",
    "ingest.records": "count",
    "ingest.dedup_s": "s",
    "ingest.build_dataset_s": "s",
    "ingest.save_dataset_s": "s",
    "ingest.load_dataset_s": "s",
    "predictor.positive_scores_s": "s",
    "predictor.calls": "count",
    "predictor.candidates_per_call": "count",
    "domain.make_session_window_s": "s",
    "domain.calls": "count",
    "evaluation.evaluate_s": "s",
    "evaluation.users": "count",
    "evaluation.rank_self_s": "s",
    "evaluation.grid_search_s": "s",
    "evaluation.grid_configs": "count",
    "proc.cpu_self_s": "s",
    "proc.cpu_children_s": "s",
    "cli.self_s": "s",
    "synth.generate_s": "s",
    "synth.write_log_s": "s",
    "synth.records": "count",
    "trace.spans": "count",
    "trace.overhead_share": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_child(phase: str, deadline: float, log_path: str, **options) -> dict:
    """Run one phase in a fresh process and return its JSON result."""
    result_path = log_path + ".json"
    argv = [sys.executable, os.path.join(HERE, "child.py"), phase, "--result", result_path]
    for key, value in options.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    env = dict(os.environ, TMPDIR=os.path.dirname(log_path))
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
            # the phase's pool workers share its process group
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        reason = "timed out" if code is None else f"exited with {code}"
        raise BenchError(f"{phase} phase {reason}:\n{tail}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def environment(root: str) -> dict:
    def version(name: str) -> str:
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return "absent"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "pasrec")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "pasrec_commit": commit,
        "pasrec_src_sha256": src.hexdigest()[:16],
    }


def load_recorded(workload: str, seed: int) -> dict[str, str] | None:
    """Recorded content digests for this workload, if recorded for this seed."""
    if not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        entry = json.load(fh).get(workload)
    return entry["outputs"] if entry and entry["seed"] == seed else None


def record(workload: str, seed: int, digests: dict[str, str]) -> None:
    recorded = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            recorded = json.load(fh)
    recorded[workload] = {"seed": seed, "outputs": digests}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")


def check_outputs(workload, checker, setups, setup_dir, timed, pass0_dir, recorded):
    """Run every output check.

    Returns (setup problems, per-operation problems per pass, content
    digests by label, users ranked per pass).
    """
    from checks import read_report_rows

    digests: dict[str, str] = {}
    setup_problems: list[str] = []

    def compare(label: str, digest: str, found: list[str]) -> None:
        digests[label] = digest
        if recorded is not None and recorded.get(label) != digest:
            found.append(f"{label}: content digest differs from the one recorded for this seed")

    for cmd in workload.setup:
        out = cmd.render(setup=setup_dir, seed="")
        label = "setup " + cmd.label
        digest, found = checker.check(out.kind, out.out, out.dataset, out.rows)
        compare(label, digest, found)
        if len({s["digests"][cmd.label] for s in setups}) != 1:
            found.append(f"{label}: output differs between set-up runs")
        setup_problems += [f"{label}: {p}" for p in found]

    passes = timed["passes"]
    first = {label: (code, byte_digest) for label, _, code, byte_digest in passes[0]["commands"]}
    content_problems: dict[str, list[str]] = {}
    users = 0
    for cmd in workload.timed:
        out = cmd.render(setup=setup_dir, **{"pass": pass0_dir})
        code = first[cmd.label][0]
        if code != 0:
            content_problems[cmd.label] = [f"exit code {code}"]
            continue
        digest, found = checker.check(out.kind, out.out, out.dataset, out.rows)
        compare(cmd.label, digest, found)
        content_problems[cmd.label] = found
        if out.kind == "report":
            users += sum(row["n_users"] for row in read_report_rows(out.out))

    op_problems = []
    for p in passes:
        this_pass = {}
        for label, _, code, byte_digest in p["commands"]:
            found = list(content_problems[label])
            if code != 0 and not found:
                found.append(f"exit code {code}")
            elif byte_digest != first[label][1]:
                found.append("output differs from pass 0")
            this_pass[label] = found
        op_problems.append(this_pass)
    return setup_problems, op_problems, digests, users


def pass_wall(p: dict) -> float:
    """Timed seconds of one pass: the sum of its commands' times."""
    return sum(sec for _, sec, _, _ in p["commands"])


def host_scale(p: dict) -> float:
    """Factor that scales the times of one pass or set-up run to the nominal
    host speed."""
    return REFERENCE_NOMINAL_S / p["reference_s"]


def end_to_end(workload, setups, timed, users):
    """Gated metrics and the raw figures printed beside them.

    ``setup_s``, ``wall_norm_s`` and ``eval.users_per_norm_s`` scale each
    set-up run's or pass's times by host_scale(); ``setup_unscaled_s``,
    ``wall_s`` and ``eval.users_per_s`` are the same unscaled.
    """
    ranking = {cmd.label for cmd in workload.timed if cmd.kind == "report"}
    command = {cmd.label: cmd.argv[0].replace("-", "_") for cmd in workload.timed}
    walls, norm_walls = [], []
    ranking_s = norm_ranking_s = 0.0
    per_command: dict[str, list[float]] = defaultdict(list)
    for p in timed["passes"]:
        scale = host_scale(p)
        walls.append(pass_wall(p))
        norm_walls.append(walls[-1] * scale)
        ranked = sum(sec for label, sec, _, _ in p["commands"] if label in ranking)
        ranking_s += ranked
        norm_ranking_s += ranked * scale
        this_pass: dict[str, float] = defaultdict(float)
        for label, sec, _, _ in p["commands"]:
            this_pass[command[label]] += sec
        for name, sec in this_pass.items():
            per_command[name].append(sec)
    # rates over the whole run: the ranking commands are a short share of a pass
    ranked_users = users * len(timed["passes"])
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * host_scale(s) for s in setups),
        "wall_norm_s": statistics.median(norm_walls),
        "peak_rss_mb": timed["peak_rss_mb"],
        "eval.users_per_norm_s": ranked_users / norm_ranking_s,
    }
    # raw and per-command figures, printed for attribution but not gated
    extra = {
        "setup_unscaled_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(walls),
        "eval.users_per_s": ranked_users / ranking_s,
        "host.reference_s": statistics.median(p["reference_s"] for p in timed["passes"]),
    }
    extra.update((f"cmd.{name}_s", statistics.median(secs)) for name, secs in per_command.items())
    grid = [cmd for cmd in workload.timed if cmd.argv[0] == "grid"]
    if grid:
        extra["grid.configs_per_min"] = 60.0 * grid[0].rows / extra["cmd.grid_s"]
    return metrics, extra


def span_totals(spans, run: int):
    """Per span name: (calls, total seconds, self seconds) within one run."""
    from tracer import self_times

    totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, span_run = span
        if span_run == run:
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += own
    return totals


def layer_metrics(setup, timed):
    """Per-layer metrics: medians over traced passes, synth.* from set-up."""
    spans = timed["spans"]
    traced = [i for i, p in enumerate(timed["passes"]) if p["traced"]]
    per_pass = []
    for run in traced:
        totals = span_totals(spans, run)
        c = defaultdict(float, timed["counters"].get(str(run), {}))

        def t(name: str) -> float:
            return totals[name][1]

        p = timed["passes"][run]
        per_pass.append({
            "similarity.count_pairs_s": t("similarity.count_pairs"),
            "similarity.rss_after_count_mb": c["similarity.rss_after_count_mb"],
            "similarity.co_pairs": c["similarity.co_pairs"],
            "similarity.band_pairs": c["similarity.band_pairs"],
            "similarity.band_share": (c["similarity.band_pairs"] / c["similarity.co_pairs"]
                                      if c["similarity.co_pairs"] else 0.0),
            "similarity.build_index_s": t("similarity.build_neighbor_index"),
            "similarity.build_index_calls": c["similarity.build_index_calls"],
            "similarity.index_entries": c["similarity.index_entries"],
            "similarity.neighbor_fill": (c["similarity.index_entries"] / c["similarity.neighbor_slots"]
                                         if c["similarity.neighbor_slots"] else 0.0),
            "similarity.repeat_selections": c["similarity.repeat_selections"],
            "similarity.index_save_s": t("similarity.index_save"),
            "similarity.index_load_s": t("similarity.index_load"),
            "similarity.index_bytes": c["similarity.index_bytes"],
            "similarity.sparsity_profile_s": t("similarity.average_uni_by_gap"),
            "ingest.parse_s": t("ingest.parse_interactions"),
            "ingest.records": c["ingest.records"],
            "ingest.dedup_s": t("ingest.deduplicate"),
            "ingest.build_dataset_s": t("ingest.build_dataset"),
            "ingest.save_dataset_s": t("ingest.save_dataset"),
            "ingest.load_dataset_s": t("ingest.load_dataset"),
            "predictor.positive_scores_s": t("predictor.positive_scores"),
            "predictor.calls": c["predictor.calls"],
            "predictor.candidates_per_call": (c["predictor.candidates"] / c["predictor.calls"]
                                              if c["predictor.calls"] else 0.0),
            "domain.make_session_window_s": t("domain.make_session_window"),
            "domain.calls": c["domain.calls"],
            "evaluation.evaluate_s": t("evaluation.evaluate"),
            "evaluation.users": c["evaluation.users"],
            "evaluation.rank_self_s": totals["evaluation.evaluate"][2],
            "evaluation.grid_search_s": t("evaluation.grid_search"),
            "evaluation.grid_configs": c["evaluation.grid_configs"],
            "proc.cpu_self_s": p["cpu_self_s"],
            "proc.cpu_children_s": p["cpu_children_s"],
            "cli.self_s": sum(v[2] for name, v in totals.items() if name.startswith("cli.")),
            "trace.spans": sum(v[0] for v in totals.values()),
        })
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    setup_totals = span_totals(setup["spans"], 0)
    metrics["synth.generate_s"] = setup_totals["synth.generate"][1]
    metrics["synth.write_log_s"] = setup_totals["synth.write_log"][1]
    metrics["synth.records"] = setup["counters"]["0"]["synth.records"]

    def norm_wall(p: dict) -> float:
        return pass_wall(p) * host_scale(p)

    plain = statistics.median(norm_wall(p) for p in timed["passes"] if not p["traced"])
    metrics["trace.overhead_share"] = (
        statistics.median(norm_wall(timed["passes"][run]) for run in traced) / plain - 1.0
    )
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def span_table(spans, runs) -> list[str]:
    """Median calls, total and self seconds per span name over the runs."""
    per_run = [span_totals(spans, run) for run in runs]
    names = sorted({name for totals in per_run for name in totals})
    lines = [f"{'span':34s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}"]
    for name in names:
        cols = [statistics.median(t[name][k] if name in t else 0 for t in per_run)
                for k in range(3)]
        lines.append(f"{name:34s} {cols[0]:8g} {cols[1]:10.4f} {cols[2]:10.4f}")
    return lines


def run(name: str, args, root: str, work: str) -> int:
    from checks import Checker, file_digest
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    recorded = None if args.record_digests else load_recorded(workload.name, args.seed)

    setups = []
    while len(setups) < (1 if args.trace else MIN_SETUPS) or (
        not args.trace and len(setups) < MAX_SETUPS
        and sum(s["setup_s"] for s in setups) < SETUP_BUDGET_S
    ):
        rep = len(setups)
        setup_dir = os.path.join(work, f"setup{rep}")
        result = run_child("setup", deadline, setup_dir + ".log", workload=workload.name,
                           seed=args.seed, dir=setup_dir, trace=args.trace)
        failed = [f"{name} exited with {code}" for name, _, code in result["commands"] if code]
        if failed:
            raise BenchError("set-up failed: " + "; ".join(failed))
        result["digests"] = {
            cmd.label: file_digest(cmd.render(setup=setup_dir, seed="").out)
            for cmd in workload.setup
        }
        if rep > 0:
            shutil.rmtree(setup_dir)
        setups.append(result)

    setup_dir = os.path.join(work, "setup0")
    timed_dir = os.path.join(work, "timed")
    timed = run_child("timed", deadline, timed_dir + ".log", workload=workload.name,
                      seed=args.seed, dir=timed_dir, setup_dir=setup_dir,
                      seconds=args.seconds, trace=args.trace)

    checker = Checker(args.seed)
    setup_problems, op_problems, digests, users = check_outputs(
        workload, checker, setups, setup_dir, timed, os.path.join(timed_dir, "pass0"), recorded,
    )
    attempted = sum(len(p) for p in op_problems)
    failed = sum(1 for p in op_problems for found in p.values() if found)
    correct = failed == 0 and not setup_problems
    for problem in setup_problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for number, p in enumerate(op_problems):
        for label, found in p.items():
            for problem in found:
                print(f"check failed: pass {number} {label}: {problem}", file=sys.stderr)

    print(f"# pasrec benchmark workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(environment(root), sort_keys=True))
    print(f"# passes={len(timed['passes'])} attempted={attempted} failed={failed} "
          f"ops_failed_share={failed / attempted:g}")
    if args.trace:
        metrics = layer_metrics(setups[0], timed)
        units = PER_LAYER_UNITS
        traced = [i for i, p in enumerate(timed["passes"]) if p["traced"]]
        print("# set-up spans")
        for line in span_table(setups[0]["spans"], [0]):
            print("#   " + line)
        print(f"# spans per traced pass (median of {len(traced)})")
        for line in span_table(timed["spans"], traced):
            print("#   " + line)
    else:
        metrics, extra = end_to_end(workload, setups, timed, users)
        units = END_TO_END_UNITS
        print("# pass wall_s " + " ".join(f"{pass_wall(p):.4f}" for p in timed["passes"]))
        for name, value in extra.items():
            unit = ("1/min" if name.endswith("_per_min")
                    else "1/s" if name.endswith("_per_s") else "s")
            print(f"# {name} {value:.6g} {unit}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")

    if args.record_digests:
        if not correct:
            raise BenchError("not recording digests of a run whose checks failed")
        record(workload.name, args.seed, digests)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pasrec", "__init__.py")):
        print("error: no pasrec source at src/pasrec; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    os.makedirs(os.path.join(root, WORK_ROOT), exist_ok=True)
    status = 0
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        work = tempfile.mkdtemp(prefix=f"{name}-{args.seed}-", dir=os.path.join(root, WORK_ROOT))
        try:
            status = max(status, run(name, args, root, work))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            status = max(status, 1)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
