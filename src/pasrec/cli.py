"""Command-line front end: dataset preparation, index building, evaluation,
grid sweeps, the sparsity profile, and synthetic corpus generation.

Each command is declared once, in ``_COMMANDS``: its function, its help text
and its options with their defaults (None marks a required option). The
parser, the option resolution and the run snapshot are derived from that
table; ``_FLAGS`` gives each option's type and choices.

Every option can come from a key-value config file (``key = value`` lines,
``#`` comments) overridden by flags. A config value is converted and checked
as its flag would be, and a bad value, or a key that no command accepts,
fails with the file and line before any input is read. Each run writes the
fully resolved configuration next to its outputs, so any artifact can be
reproduced from what sits beside it. Outputs are deterministic given the
same inputs and seed.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

from .domain import MEASURES, SCALINGS, SimilarityParams
from .evaluation import (
    SPLITS,
    evaluate,
    expand_grid,
    grid_search,
    write_report_json,
    write_report_tsv,
)
from .ingest import (
    ColumnSchema,
    build_dataset,
    deduplicate,
    filter_positive,
    load_dataset,
    parse_interactions,
    save_dataset,
    subsample_users,
)
from .similarity import (
    NeighborIndex,
    average_uni_by_gap,
    build_neighbor_index,
    count_pairs,
)
from .synth import SynthConfig, generate, write_log

log = logging.getLogger(__name__)


def _read_config(path: str | None) -> dict[str, tuple[str, str]]:
    """Each config key's raw value and its ``path:line``."""
    if path is None:
        return {}
    config: dict[str, tuple[str, str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in _FLAGS:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}: no command accepts it")
            config[key] = (value.strip(), f"{path}:{lineno}")
    return config


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part != "")


def _csv_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part != "")


def _csv_strs(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# every option a command can take, as a flag or a config key
_FLAGS = {
    "input": dict(type=str, help="raw interaction log"),
    "out": dict(type=str, help="output file or directory"),
    "dataset": dict(type=str, help="prepared dataset directory"),
    "index": dict(type=str, help="neighbor index artifact"),
    "delimiter": dict(type=str, help="field delimiter"),
    "user_col": dict(type=int), "item_col": dict(type=int),
    "rating_col": dict(type=int, help="-1 if the log has no rating column"),
    "timestamp_col": dict(type=int),
    "filter": dict(type=str, choices=["rating_equals_5", "all"]),
    "max_users": dict(type=int), "seed": dict(type=int),
    "on_error": dict(type=str, choices=["raise", "skip"]),
    "measure": dict(type=str, choices=list(MEASURES)),
    "ell": dict(type=int), "rho": dict(type=float), "lam": dict(type=float),
    "scaling": dict(type=str, choices=list(SCALINGS)),
    "w": dict(type=float), "n_neighbors": dict(type=int),
    "rank_by": dict(type=str, choices=["bis", "max_t"]),
    "split": dict(type=str, choices=list(SPLITS)),
    "topk": dict(type=int),
    "ells": dict(type=_csv_ints), "lambdas": dict(type=_csv_floats),
    "scalings": dict(type=_csv_strs),
    "users": dict(type=int), "items": dict(type=int),
    "min_len": dict(type=int), "max_len": dict(type=int),
    "signal": dict(type=float), "reverse_noise": dict(type=float),
}


def _config_value(key: str, text: str, where: str):
    """A config value converted and checked as its flag would be."""
    flag = _FLAGS[key]
    try:
        value = flag["type"](text)
    except ValueError as exc:
        raise ValueError(f"{where}: {key}: {exc}") from None
    if "choices" in flag and value not in flag["choices"]:
        raise ValueError(f"{where}: unknown {key} {value!r}, expected one of {', '.join(flag['choices'])}")
    return value


def _resolve(args: argparse.Namespace, config: dict[str, tuple[str, str]], defaults: dict) -> dict:
    """Merge defaults < config file < command-line flags, per option."""
    resolved = {}
    for key, default in defaults.items():
        value = getattr(args, key)
        if value is None and key in config:
            value = _config_value(key, *config[key])
        resolved[key] = default if value is None else value
    missing = [key for key, value in resolved.items() if value is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join(sorted(missing))}")
    return resolved


def _write_snapshot(opt: dict) -> None:
    """The resolved options as JSON: inside ``out`` when the command wrote a
    directory there, at ``<out>.config.json`` when it wrote a file."""
    out = opt["out"]
    path = os.path.join(out, "run_config.json") if os.path.isdir(out) else out + ".config.json"
    snapshot = {"format_version": 1}
    snapshot.update((key, list(v) if isinstance(v, tuple) else v) for key, v in opt.items())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_prepare(opt: dict) -> None:
    schema = ColumnSchema(
        delimiter=opt["delimiter"],
        user_col=opt["user_col"],
        item_col=opt["item_col"],
        rating_col=opt["rating_col"] if opt["rating_col"] >= 0 else None,
        timestamp_col=opt["timestamp_col"],
    )
    with open(opt["input"], encoding="utf-8") as fh:
        records = parse_interactions(fh, schema, on_error=opt["on_error"])
    records = filter_positive(records, opt["filter"])
    records = deduplicate(records)
    records = subsample_users(records, opt["max_users"], opt["seed"])
    dataset = build_dataset(records)
    if dataset.stats.n_eval_users == 0:
        raise ValueError("no users with enough interactions to evaluate after filtering")
    save_dataset(dataset, opt["out"])
    log.info("prepared dataset in %s", opt["out"])


def cmd_build_index(opt: dict) -> None:
    dataset = load_dataset(opt["dataset"])
    params = SimilarityParams(
        ell=opt["ell"], rho=opt["rho"], lam=opt["lam"], scaling=opt["scaling"],
        w=opt["w"], n_neighbors=opt["n_neighbors"],
    )
    started = time.perf_counter()
    store = count_pairs(dataset.sequences, params.ell)
    index = build_neighbor_index(store, params, opt["measure"], rank_by=opt["rank_by"])
    index.save(opt["out"])
    elapsed = time.perf_counter() - started
    log.info(
        "index written to %s: %d pairs in gap band, %d neighbor entries, %.1fs build",
        opt["out"], len(store.gaps), len(index.targets), elapsed,
    )


def cmd_evaluate(opt: dict) -> None:
    dataset = load_dataset(opt["dataset"])
    index = NeighborIndex.load(opt["index"])
    result = evaluate(
        dataset, index, opt["split"], top_k=opt["topk"],
        measure=opt["measure"] or None,
    )
    os.makedirs(opt["out"], exist_ok=True)
    write_report_tsv([result], os.path.join(opt["out"], "report.tsv"))
    write_report_json([result], os.path.join(opt["out"], "report.json"))
    log.info("report written to %s", opt["out"])


def cmd_grid(opt: dict) -> None:
    grid = expand_grid(
        opt["measure"], ells=opt["ells"], lambdas=opt["lambdas"] or None,
        scalings=opt["scalings"] or None, rho=opt["rho"], w=opt["w"],
        n_neighbors=opt["n_neighbors"],
    )
    dataset = load_dataset(opt["dataset"])
    result = grid_search(dataset, grid, top_k=opt["topk"], rank_by=opt["rank_by"])
    rows = list(result.validation) + [result.test]
    os.makedirs(opt["out"], exist_ok=True)
    write_report_tsv(rows, os.path.join(opt["out"], "report.tsv"))
    write_report_json(rows, os.path.join(opt["out"], "report.json"))
    best = result.best_params
    print(
        f"selected {result.best_measure} ell={best.ell} lam={best.lam} scaling={best.scaling}: "
        f"test ndcg@{opt['topk']}={result.test.ndcg:.4f} "
        f"1-call@{opt['topk']}={result.test.one_call:.4f}"
    )


def cmd_sparsity_report(opt: dict) -> None:
    dataset = load_dataset(opt["dataset"])
    store = count_pairs(dataset.sequences, opt["ell"])
    profile = average_uni_by_gap(store, ell=opt["ell"], n_neighbors=opt["n_neighbors"], w=opt["w"])
    os.makedirs(opt["out"], exist_ok=True)
    path = os.path.join(opt["out"], "sparsity.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#pasrec-sparsity\t1\n")
        fh.write("G\th_a\th_b\th_c\n")
        for gap in range(opt["ell"]):
            fh.write(
                f"{gap}\t{profile['h_a'][gap]!r}\t{profile['h_b'][gap]!r}\t{profile['h_c'][gap]!r}\n"
            )
    log.info("sparsity profile written to %s", path)


def cmd_synth(opt: dict) -> None:
    synth_config = SynthConfig(
        n_users=opt["users"], n_items=opt["items"],
        seq_length_range=(opt["min_len"], opt["max_len"]),
        signal=opt["signal"], reverse_noise=opt["reverse_noise"], seed=opt["seed"],
    )
    records = generate(synth_config)
    write_log(records, opt["out"], delimiter=opt["delimiter"])
    log.info("wrote %d records to %s", len(records), opt["out"])


# name: (function, help, {option: default}), options in parser order; a
# default of None marks a required option
_COMMANDS = {
    "prepare": (cmd_prepare, "parse, filter, dedup, subsample, split", {
        "input": None,
        "out": None,
        "delimiter": "::",
        "user_col": 0,
        "item_col": 1,
        "rating_col": 2,
        "timestamp_col": 3,
        "filter": "rating_equals_5",
        "max_users": 20000,
        "seed": 0,
        "on_error": "raise",
    }),
    "build-index": (cmd_build_index, "build and persist a neighbor index", {
        "dataset": None,
        "out": None,
        "measure": "pas",
        "ell": 10,
        "rho": 0.2,
        "lam": 0.5,
        "scaling": "h_a",
        "w": 2.0,
        "n_neighbors": 20,
        "rank_by": "bis",
    }),
    "evaluate": (cmd_evaluate, "evaluate an index on a split", {
        "dataset": None,
        "index": None,
        "out": None,
        "split": "test",
        "topk": 5,
        "measure": "",
    }),
    "grid": (cmd_grid, "validation-driven hyperparameter sweep", {
        "dataset": None,
        "out": None,
        "measure": "pas",
        "ells": (5, 10, 20, 40),
        "lambdas": (),
        "scalings": (),
        "rho": 0.2,
        "w": 2.0,
        "n_neighbors": 20,
        "topk": 5,
        "rank_by": "bis",
    }),
    "sparsity-report": (cmd_sparsity_report, "average position-aware similarity by gap", {
        "dataset": None,
        "out": None,
        "ell": 10,
        "n_neighbors": 20,
        "w": 2.0,
    }),
    "synth": (cmd_synth, "generate a synthetic interaction log", {
        "out": None,
        "users": 1000,
        "items": 200,
        "min_len": 10,
        "max_len": 30,
        "signal": 0.8,
        "reverse_noise": 0.0,
        "seed": 0,
        "delimiter": "::",
    }),
}

# the benchmark's command lines still pass --workers to these three
_IGNORES_WORKERS = ("build-index", "evaluate", "grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pasrec", description=__doc__)
    parser.add_argument("--config", type=str, default=None, help="key-value config file")
    parser.add_argument("-q", "--quiet", action="store_true", help="only warnings and errors")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, defaults) in _COMMANDS.items():
        command_parser = sub.add_parser(name, help=help_text)
        for key in defaults:
            command_parser.add_argument("--" + key.replace("_", "-"), dest=key, default=None, **_FLAGS[key])
        if name in _IGNORES_WORKERS:
            command_parser.add_argument(
                "--workers", type=int, default=None,
                help="accepted for old command lines; no effect, every command runs in one process",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    command, _, defaults = _COMMANDS[args.command]
    try:
        opt = _resolve(args, _read_config(args.config), defaults)
        command(opt)
        _write_snapshot(opt)
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
