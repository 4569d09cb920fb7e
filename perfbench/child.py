"""One benchmark phase in a fresh process, so that its peak memory is its own.

    python3 perfbench/child.py setup --workload W --seed N --dir D --trace 0|1 --result R
    python3 perfbench/child.py timed --workload W --seed N --dir D --setup-dir S \
        --seconds T --trace 0|1 --result R

``setup`` generates the workload's input with ``pasrec synth`` and runs its
set-up commands. ``timed`` runs passes of the workload's timed commands until
their summed time reaches ``--seconds``; with tracing on, passes alternate
untraced and traced, starting untraced. A fixed reference loop is timed
before and after the set-up commands, and before the first pass and after
each pass, never inside a command. Every command is ``pasrec.cli.main``
called in this process, one at a time. Outputs of pass 0 are kept for the
checks; later passes keep only raw-byte digests of their outputs. The phase
writes its measurements, and any spans, as JSON to ``--result``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from pasrec import cli  # noqa: E402

from checks import file_digest  # noqa: E402
from tracer import Tracer, rusage_cpu  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_PASSES = 50


def _run(argv, tracer: Tracer | None) -> tuple[float, int]:
    """(seconds, exit code) of one command."""
    gc.collect()
    started = time.perf_counter()
    if tracer is None:
        code = cli.main(["-q", *argv])
    else:
        with tracer.span("cli." + argv[0]):
            code = cli.main(["-q", *argv])
    return time.perf_counter() - started, code


def _reference_once() -> float:
    started = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    items = [i % 997 for i in range(40000)]
    for a, b in zip(items, items[7:]):
        counts[a, b] = counts.get((a, b), 0) + 1
    sorted(counts.items(), key=lambda kv: -kv[1])
    return time.perf_counter() - started


def host_reference() -> float:
    """Seconds of a fixed pure-Python loop (tuple-keyed dict counting and a
    sort, like pasrec's own inner loops), median of 9 repetitions.

    The host's speed drifts by tens of percent within seconds to minutes;
    timing this loop around every set-up run and timed pass lets the
    benchmark scale their times to a fixed host speed.
    """
    return statistics.median(_reference_once() for _ in range(9))


def run_setup(workload, seed: int, setup_dir: str, tracer: Tracer | None) -> dict:
    os.makedirs(setup_dir)
    dirs = {"setup": setup_dir, "seed": seed}
    argvs = [[a.format(**dirs) for a in workload.synth]]
    argvs += [cmd.render(**dirs).argv for cmd in workload.setup]
    before = host_reference()
    if tracer is not None:
        tracer.install()
    commands = [[argv[0], *_run(argv, tracer)] for argv in argvs]
    if tracer is not None:
        tracer.uninstall()
    return {
        "setup_s": sum(sec for _, sec, _ in commands),
        "commands": commands,
        "reference_s": (before + host_reference()) / 2,
    }


def run_timed(workload, seed: int, work_dir: str, setup_dir: str, seconds: float,
              tracer: Tracer | None) -> dict:
    passes = []
    references = [host_reference()]
    elapsed = 0.0
    while len(passes) < MAX_PASSES:
        number = len(passes)
        traced = tracer is not None and number % 2 == 1
        pass_dir = os.path.join(work_dir, f"pass{number}")
        os.makedirs(pass_dir)
        rendered = [cmd.render(setup=setup_dir, **{"pass": pass_dir}) for cmd in workload.timed]
        cpu_before = rusage_cpu()
        if traced:
            tracer.run_id = number
            tracer.install()
        commands = [[cmd.label, *_run(cmd.argv, tracer if traced else None)] for cmd in rendered]
        if traced:
            tracer.uninstall()
        cpu_after = rusage_cpu()
        references.append(host_reference())
        for entry, cmd in zip(commands, rendered):
            entry.append(file_digest(cmd.out) if entry[2] == 0 else None)
        if number > 0:
            shutil.rmtree(pass_dir)
        passes.append({
            "traced": traced,
            "commands": commands,
            "cpu_self_s": cpu_after[0] - cpu_before[0],
            "cpu_children_s": cpu_after[1] - cpu_before[1],
            # the reference loop's time around this pass: mean of before and after
            "reference_s": (references[-2] + references[-1]) / 2,
        })
        elapsed += sum(sec for _, sec, _, _ in commands)
        if elapsed >= seconds and (tracer is None or len(passes) >= 2):
            break
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {"passes": passes, "peak_rss_mb": peak_kb / 1024}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("phase", choices=("setup", "timed"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--setup-dir")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if args.phase == "setup":
        result = run_setup(workload, args.seed, args.dir, tracer)
    else:
        result = run_timed(workload, args.seed, args.dir, args.setup_dir, args.seconds, tracer)
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = {str(run): dict(c) for run, c in tracer.counters.items()}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
