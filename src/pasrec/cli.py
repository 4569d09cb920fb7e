"""Command-line front end: dataset preparation, index building, evaluation,
grid sweeps, the sparsity profile, and synthetic corpus generation.

Every option can come from a key-value config file (``key = value`` lines,
``#`` comments) overridden by flags; each run writes the fully resolved
configuration next to its outputs, so any artifact can be reproduced from
what sits beside it. A config key that no command accepts is an error.
Outputs are deterministic given the same inputs and seed.
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


def _read_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    config: dict[str, str] = {}
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
            config[key] = value.strip()
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


def _resolve(args: argparse.Namespace, config: dict[str, str], optspec: dict) -> dict:
    """Merge defaults < config file < command-line flags, per option."""
    resolved = {}
    for key, (convert, default) in optspec.items():
        value = getattr(args, key, None)
        if value is None and key in config:
            value = convert(config[key])
        if value is None:
            value = default
        resolved[key] = value
    missing = [key for key, value in resolved.items() if value is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join(sorted(missing))}")
    return resolved


def _write_snapshot(resolved: dict, out_path: str) -> None:
    snapshot = {"format_version": 1}
    snapshot.update(
        (key, list(v) if isinstance(v, tuple) else v) for key, v in resolved.items()
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_prepare(args: argparse.Namespace, config: dict[str, str]) -> int:
    optspec = {
        "input": (str, None),
        "out": (str, None),
        "delimiter": (str, "::"),
        "user_col": (int, 0),
        "item_col": (int, 1),
        "rating_col": (int, 2),
        "timestamp_col": (int, 3),
        "filter": (str, "rating_equals_5"),
        "max_users": (int, 20000),
        "seed": (int, 0),
        "on_error": (str, "raise"),
    }
    opt = _resolve(args, config, optspec)
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
    _write_snapshot(opt, os.path.join(opt["out"], "run_config.json"))
    log.info("prepared dataset in %s", opt["out"])
    return 0


def _params_from(opt: dict) -> SimilarityParams:
    return SimilarityParams(
        ell=opt["ell"], rho=opt["rho"], lam=opt["lam"], scaling=opt["scaling"],
        w=opt["w"], n_neighbors=opt["n_neighbors"],
    )


def cmd_build_index(args: argparse.Namespace, config: dict[str, str]) -> int:
    optspec = {
        "dataset": (str, None),
        "out": (str, None),
        "measure": (str, "pas"),
        "ell": (int, 10),
        "rho": (float, 0.2),
        "lam": (float, 0.5),
        "scaling": (str, "h_a"),
        "w": (float, 2.0),
        "n_neighbors": (int, 20),
        "rank_by": (str, "bis"),
    }
    opt = _resolve(args, config, optspec)
    dataset = load_dataset(opt["dataset"])
    params = _params_from(opt)
    started = time.perf_counter()
    store = count_pairs(dataset.sequences, params.ell)
    index = build_neighbor_index(store, params, opt["measure"], rank_by=opt["rank_by"])
    index.save(opt["out"])
    elapsed = time.perf_counter() - started
    log.info(
        "index written to %s: %d pairs in gap band, %d neighbor entries, %.1fs build",
        opt["out"], len(store.gaps), len(index.targets), elapsed,
    )
    _write_snapshot(opt, opt["out"] + ".config.json")
    return 0


def cmd_evaluate(args: argparse.Namespace, config: dict[str, str]) -> int:
    optspec = {
        "dataset": (str, None),
        "index": (str, None),
        "out": (str, None),
        "split": (str, "test"),
        "topk": (int, 5),
        "measure": (str, ""),
    }
    opt = _resolve(args, config, optspec)
    if opt["split"] not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {opt['split']!r}")
    dataset = load_dataset(opt["dataset"])
    index = NeighborIndex.load(opt["index"])
    result = evaluate(
        dataset, index, opt["split"], top_k=opt["topk"],
        measure=opt["measure"] or None,
    )
    os.makedirs(opt["out"], exist_ok=True)
    write_report_tsv([result], os.path.join(opt["out"], "report.tsv"))
    write_report_json([result], os.path.join(opt["out"], "report.json"))
    _write_snapshot(opt, os.path.join(opt["out"], "run_config.json"))
    log.info("report written to %s", opt["out"])
    return 0


def cmd_grid(args: argparse.Namespace, config: dict[str, str]) -> int:
    optspec = {
        "dataset": (str, None),
        "out": (str, None),
        "measure": (str, "pas"),
        "ells": (_csv_ints, (5, 10, 20, 40)),
        "lambdas": (_csv_floats, ()),
        "scalings": (_csv_strs, ()),
        "rho": (float, 0.2),
        "w": (float, 2.0),
        "n_neighbors": (int, 20),
        "topk": (int, 5),
        "rank_by": (str, "bis"),
    }
    opt = _resolve(args, config, optspec)
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
    _write_snapshot(opt, os.path.join(opt["out"], "run_config.json"))
    best = result.best_params
    print(
        f"selected {result.best_measure} ell={best.ell} lam={best.lam} scaling={best.scaling}: "
        f"test ndcg@{opt['topk']}={result.test.ndcg:.4f} "
        f"1-call@{opt['topk']}={result.test.one_call:.4f}"
    )
    return 0


def cmd_sparsity_report(args: argparse.Namespace, config: dict[str, str]) -> int:
    optspec = {
        "dataset": (str, None),
        "out": (str, None),
        "ell": (int, 10),
        "n_neighbors": (int, 20),
        "w": (float, 2.0),
    }
    opt = _resolve(args, config, optspec)
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
    _write_snapshot(opt, os.path.join(opt["out"], "run_config.json"))
    log.info("sparsity profile written to %s", path)
    return 0


def cmd_synth(args: argparse.Namespace, config: dict[str, str]) -> int:
    optspec = {
        "out": (str, None),
        "users": (int, 1000),
        "items": (int, 200),
        "min_len": (int, 10),
        "max_len": (int, 30),
        "signal": (float, 0.8),
        "reverse_noise": (float, 0.0),
        "seed": (int, 0),
        "delimiter": (str, "::"),
    }
    opt = _resolve(args, config, optspec)
    synth_config = SynthConfig(
        n_users=opt["users"], n_items=opt["items"],
        seq_length_range=(opt["min_len"], opt["max_len"]),
        signal=opt["signal"], reverse_noise=opt["reverse_noise"], seed=opt["seed"],
    )
    records = generate(synth_config)
    write_log(records, opt["out"], delimiter=opt["delimiter"])
    _write_snapshot(opt, opt["out"] + ".config.json")
    log.info("wrote %d records to %s", len(records), opt["out"])
    return 0


_COMMANDS = {
    "prepare": cmd_prepare,
    "build-index": cmd_build_index,
    "evaluate": cmd_evaluate,
    "grid": cmd_grid,
    "sparsity-report": cmd_sparsity_report,
    "synth": cmd_synth,
}


def _add_common(parser: argparse.ArgumentParser, names: list[str]) -> None:
    for name in names:
        kwargs = dict(_FLAGS[name])
        kwargs.setdefault("default", None)
        parser.add_argument("--" + name.replace("_", "-"), dest=name, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pasrec", description=__doc__)
    parser.add_argument("--config", type=str, default=None, help="key-value config file")
    parser.add_argument("-q", "--quiet", action="store_true", help="only warnings and errors")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("prepare", help="parse, filter, dedup, subsample, split"),
                ["input", "out", "delimiter", "user_col", "item_col", "rating_col",
                 "timestamp_col", "filter", "max_users", "seed", "on_error"])
    build_index_parser = sub.add_parser("build-index", help="build and persist a neighbor index")
    _add_common(build_index_parser, ["dataset", "out", "measure", "ell", "rho", "lam", "scaling",
                                     "w", "n_neighbors", "rank_by"])
    evaluate_parser = sub.add_parser("evaluate", help="evaluate an index on a split")
    _add_common(evaluate_parser, ["dataset", "index", "out", "split", "topk", "measure"])
    grid_parser = sub.add_parser("grid", help="validation-driven hyperparameter sweep")
    _add_common(grid_parser, ["dataset", "out", "measure", "ells", "lambdas", "scalings", "rho",
                              "w", "n_neighbors", "topk", "rank_by"])
    # the benchmark's command lines still pass --workers to these three
    for command_parser in (build_index_parser, evaluate_parser, grid_parser):
        command_parser.add_argument(
            "--workers", type=int, default=None,
            help="accepted for old command lines; no effect, every command runs in one process",
        )
    _add_common(sub.add_parser("sparsity-report", help="average position-aware similarity by gap"),
                ["dataset", "out", "ell", "n_neighbors", "w"])
    _add_common(sub.add_parser("synth", help="generate a synthetic interaction log"),
                ["out", "users", "items", "min_len", "max_len", "signal",
                 "reverse_noise", "seed", "delimiter"])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        config = _read_config(args.config)
        return _COMMANDS[args.command](args, config)
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
