"""The benchmark's workloads: synthetic input shapes, set-up commands and the
commands of one timed pass, each as the argument list a user would give the
``pasrec`` command line.

Every workload is a closed loop with one client: the benchmark issues one
command, waits for it to finish, then issues the next. Directory placeholders
``{setup}`` and ``{pass}`` are filled in by the benchmark; ``{seed}`` is the
benchmark's workload seed, which only ``synth`` sees.

Each command names the output its checks read (``kind`` and ``out``):
``dataset`` a prepared dataset directory, ``index`` a neighbor index file,
``report`` an evaluate/grid report directory with ``rows`` rows, ``sparsity``
a sparsity-report directory. ``dataset`` names the prepared dataset the
output was computed from.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    kind: str
    out: str
    dataset: str
    rows: int = 0

    def render(self, **dirs: str) -> "Command":
        """This command with the directory placeholders filled in."""
        def fill(text: str) -> str:
            return text.format(**dirs)

        return Command(
            self.label, tuple(fill(a) for a in self.argv), self.kind,
            fill(self.out), fill(self.dataset), self.rows,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    synth: tuple[str, ...]
    setup: tuple[Command, ...]
    timed: tuple[Command, ...]


def _synth(users: int, items: int, min_len: int, max_len: int,
           signal: float, reverse_noise: float) -> tuple[str, ...]:
    return (
        "synth", "--out", "{setup}/log.txt", "--users", str(users), "--items", str(items),
        "--min-len", str(min_len), "--max-len", str(max_len), "--signal", str(signal),
        "--reverse-noise", str(reverse_noise), "--seed", "{seed}",
    )


def _prepare(out: str) -> Command:
    return Command(
        "prepare", ("prepare", "--input", "{setup}/log.txt", "--out", out), "dataset", out, out,
    )


def _build(label: str, data: str, out: str, measure: str, *extra: str) -> Command:
    argv = ("build-index", "--dataset", data, "--out", out, "--measure", measure,
            "--ell", "10", *extra, "--workers", "1")
    return Command(label, argv, "index", out, data)


def _evaluate(label: str, data: str, index: str, split: str, out: str) -> Command:
    argv = ("evaluate", "--dataset", data, "--index", index, "--split", split,
            "--out", out, "--workers", "1")
    return Command(label, argv, "report", out, data, rows=1)


PIPELINE_LONG = Workload(
    name="pipeline_long",
    synth=_synth(users=1000, items=2000, min_len=15, max_len=60, signal=0.7, reverse_noise=0.05),
    setup=(),
    timed=(
        _prepare("{pass}/data"),
        _build("build-index", "{pass}/data", "{pass}/pas.idx", "pas",
               "--lam", "0.5", "--scaling", "h_a", "--n-neighbors", "20"),
        _evaluate("evaluate", "{pass}/data", "{pass}/pas.idx", "test", "{pass}/eval"),
    ),
)

GRID_STUDY = Workload(
    name="grid_study",
    synth=_synth(users=600, items=500, min_len=15, max_len=40, signal=0.8, reverse_noise=0.1),
    setup=(_prepare("{setup}/data"),),
    timed=(
        Command(
            "grid",
            ("grid", "--dataset", "{setup}/data", "--out", "{pass}/grid", "--measure", "pas",
             "--ells", "5,10,20,40", "--lambdas", "0.5", "--scalings", "h_a,h_b,h_c",
             "--workers", "2"),
            "report", "{pass}/grid", "{setup}/data", rows=13,
        ),
        Command(
            "sparsity-report",
            ("sparsity-report", "--dataset", "{setup}/data", "--out", "{pass}/sparsity",
             "--ell", "10"),
            "sparsity", "{pass}/sparsity", "{setup}/data", rows=10,
        ),
    ),
)

EVAL_WIDE = Workload(
    name="eval_wide",
    synth=_synth(users=4000, items=5000, min_len=5, max_len=15, signal=0.8, reverse_noise=0.0),
    setup=(
        _prepare("{setup}/data"),
        _build("build-index pas", "{setup}/data", "{setup}/pas.idx", "pas",
               "--lam", "0.5", "--scaling", "h_a", "--n-neighbors", "20"),
        _build("build-index cosine", "{setup}/data", "{setup}/cosine.idx", "cosine",
               "--n-neighbors", "20"),
    ),
    timed=(
        _evaluate("evaluate pas/validation", "{setup}/data", "{setup}/pas.idx", "validation",
                  "{pass}/pas-validation"),
        _evaluate("evaluate pas/test", "{setup}/data", "{setup}/pas.idx", "test",
                  "{pass}/pas-test"),
        _evaluate("evaluate cosine/test", "{setup}/data", "{setup}/cosine.idx", "test",
                  "{pass}/cosine-test"),
    ),
)

WORKLOADS = {w.name: w for w in (PIPELINE_LONG, GRID_STUDY, EVAL_WIDE)}
