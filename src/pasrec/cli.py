"""Command-line front end: dataset preparation, index building, evaluation,
grid sweeps, the sparsity profile, and synthetic corpus generation.

Each option is declared once, in ``_FLAGS``: its default (None marks a
required option), type, choices and help. An option that is a field of
``SimilarityParams``, ``ColumnSchema`` or ``SynthConfig`` takes that field's
default. Each command is declared once, in ``_COMMANDS``: its function, its
help text, its options in parser order and the defaults in which it differs
from ``_FLAGS``. The parser, the help of each option with its default, the
option resolution and the run snapshot are derived from those two tables.

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
    DEFAULT_ELLS,
    SPLITS,
    evaluate,
    expand_grid,
    grid_search,
    write_report_json,
    write_report_tsv,
)
from .ingest import (
    ColumnSchema,
    ParseError,
    _escaped,
    build_dataset,
    deduplicate,
    filter_positive,
    load_dataset,
    parse_interactions,
    save_dataset,
    subsample_users,
)
from .similarity import (
    RANK_CRITERIA,
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
    # utf-8-sig drops a byte-order mark, which would join the first key
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if reason := _escaped(raw):
                raise ValueError(f"{path}:{lineno}: {reason}")
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


def _csv(convert, expected: str):
    """A flag type for a comma-separated list; a bad value names ``expected``
    in argparse's message and in a config file's."""
    def parse(text: str) -> tuple:
        try:
            return tuple(convert(part.strip()) for part in text.split(",") if part.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
    return parse


def _scaling(text: str) -> str:
    if text not in SCALINGS:
        raise ValueError(text)
    return text


# every option a command can take, as a flag or a config key: its default,
# None for a required option, beside its argparse settings. An option that
# is a field of SimilarityParams, ColumnSchema or SynthConfig takes that
# field's default
_FLAGS = {
    "input": dict(default=None, type=str, help="raw interaction log"),
    "out": dict(default=None, type=str, help="output file or directory"),
    "dataset": dict(default=None, type=str, help="prepared dataset directory"),
    "index": dict(default=None, type=str, help="neighbor index artifact"),
    "delimiter": dict(default=ColumnSchema.delimiter, type=str, help="field delimiter of the log"),
    "user_col": dict(default=ColumnSchema.user_col, type=int, help="0-based column of the user id"),
    "item_col": dict(default=ColumnSchema.item_col, type=int, help="0-based column of the item id"),
    "rating_col": dict(default=ColumnSchema.rating_col, type=int,
                       help="0-based column of the rating, -1 if the log has no rating column"),
    "timestamp_col": dict(default=ColumnSchema.timestamp_col, type=int, help="0-based column of the timestamp"),
    "filter": dict(default="rating_equals_5", type=str, choices=["rating_equals_5", "all"],
                   help="keep the records rated 5, or all of them"),
    "max_users": dict(default=20000, type=int, help="most users kept, sampled by --seed"),
    "seed": dict(default=0, type=int, help="random seed"),
    "on_error": dict(default="raise", type=str, choices=["raise", "skip"],
                     help="fail at a malformed log line, or skip it"),
    "measure": dict(default="pas", type=str, choices=list(MEASURES),
                    help="similarity measure; for evaluate, the one the index must have"),
    "ell": dict(default=10, type=int, help="valid distance, and session-window length k"),
    "rho": dict(default=SimilarityParams.rho, type=float, help="reverse factor, in (0, 1)"),
    "lam": dict(default=SimilarityParams.lam, type=float, help="pas weight in [0, 1]: 0 is bis, 1 is pas_uni"),
    "scaling": dict(default=SimilarityParams.scaling, type=str, choices=list(SCALINGS),
                    help="threshold scaling of pas and pas_uni"),
    "w": dict(default=SimilarityParams.w, type=float, help="scaling parameter, > 1"),
    "n_neighbors": dict(default=SimilarityParams.n_neighbors, type=int, help="neighbors kept per item"),
    "rank_by": dict(default="bis", type=str, choices=list(RANK_CRITERIA),
                    help="what pas ranks neighbors by: bis, or max_t, its t = k value"),
    "split": dict(default="test", type=str, choices=list(SPLITS), help="held-out split to rank"),
    "topk": dict(default=5, type=int, help="cutoff K of NDCG@K and 1-call@K"),
    "ells": dict(default=DEFAULT_ELLS, type=_csv(int, "comma-separated integers"),
                 help="comma-separated ell values"),
    "lambdas": dict(default=(), type=_csv(float, "comma-separated numbers"),
                    help=f"comma-separated lam values of pas; none for {SimilarityParams.lam}"),
    "scalings": dict(default=(), type=_csv(_scaling, f"comma-separated scalings from {', '.join(SCALINGS)}"),
                     help="comma-separated scalings of pas and pas_uni; none for all"),
    "users": dict(default=1000, type=int, help="users generated"),
    "items": dict(default=200, type=int, help="catalog size"),
    "min_len": dict(default=SynthConfig.seq_length_range[0], type=int, help="shortest sequence"),
    "max_len": dict(default=SynthConfig.seq_length_range[1], type=int, help="longest sequence"),
    "signal": dict(default=SynthConfig.signal, type=float, help="chance of the planted successor at each step"),
    "reverse_noise": dict(default=SynthConfig.reverse_noise, type=float,
                          help="chance of swapping each adjacent pair"),
}


def _help(key: str, default) -> str:
    """The option's help, with its default as a flag would give it."""
    if default is None:
        return f"{_FLAGS[key]['help']} (required)"
    if isinstance(default, tuple):
        default = ",".join(map(str, default))
    return f"{_FLAGS[key]['help']} (default: {'none' if default == '' else default})"


def _config_value(key: str, text: str, where: str):
    """A config value converted and checked as its flag would be."""
    flag = _FLAGS[key]
    try:
        value = flag["type"](text)
    except (ValueError, argparse.ArgumentTypeError) as exc:
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
    if opt["max_users"] < 1:
        raise ValueError(f"--max-users must be >= 1, got {opt['max_users']}")
    if opt["filter"] == "rating_equals_5" and opt["rating_col"] == -1:
        raise ValueError("--filter rating_equals_5 needs a rating column: give --rating-col, "
                         "or --filter all to keep every record")
    schema = ColumnSchema(
        delimiter=opt["delimiter"],
        user_col=opt["user_col"],
        item_col=opt["item_col"],
        rating_col=None if opt["rating_col"] == -1 else opt["rating_col"],
        timestamp_col=opt["timestamp_col"],
    )
    # utf-8-sig drops a byte-order mark, which would join the first user id;
    # a byte that is not UTF-8 reaches the parser, which names its line
    with open(opt["input"], encoding="utf-8-sig", errors="surrogateescape") as fh:
        try:
            table = parse_interactions(fh, schema, on_error=opt["on_error"])
        except ParseError as exc:
            raise ValueError(f"{opt['input']}:{exc.line_number}: {exc.message}") from None
    n_parsed = len(table)
    table = filter_positive(table, opt["filter"])
    n_positive = len(table)
    table = deduplicate(table)
    n_distinct = len(table)
    table = subsample_users(table, opt["max_users"], opt["seed"])
    log.info("prepare: %d parsed, %d kept positive, %d after dedup, %d after subsample",
             n_parsed, n_positive, n_distinct, len(table))
    dataset = build_dataset(table)
    if dataset.stats.n_eval_users == 0:
        raise ValueError("no users with enough interactions to evaluate after filtering")
    save_dataset(dataset, opt["out"])
    log.info("prepared dataset in %s", opt["out"])


def cmd_build_index(opt: dict) -> None:
    params = SimilarityParams(
        ell=opt["ell"], rho=opt["rho"], lam=opt["lam"], scaling=opt["scaling"],
        w=opt["w"], n_neighbors=opt["n_neighbors"],
    )
    dataset = load_dataset(opt["dataset"])
    started = time.perf_counter()
    store = count_pairs(dataset.item_universe, dataset.train_codes, dataset.train_offsets, params.ell)
    index = build_neighbor_index(store, params, opt["measure"], rank_by=opt["rank_by"])
    band_pairs = len(store.gaps)
    # the store and its selection memo are not held through the save
    del store
    index.save(opt["out"])
    elapsed = time.perf_counter() - started
    log.info(
        "index written to %s: %d pairs in gap band, %d neighbor entries, %.1fs build",
        opt["out"], band_pairs, len(index.targets), elapsed,
    )


def _check_topk(opt: dict) -> None:
    if opt["topk"] < 1:
        raise ValueError(f"--topk must be >= 1, got {opt['topk']}")


def cmd_evaluate(opt: dict) -> None:
    _check_topk(opt)
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
    _check_topk(opt)
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
    params = SimilarityParams(ell=opt["ell"], w=opt["w"], n_neighbors=opt["n_neighbors"])
    dataset = load_dataset(opt["dataset"])
    store = count_pairs(dataset.item_universe, dataset.train_codes, dataset.train_offsets, params.ell)
    profile = average_uni_by_gap(store, ell=params.ell, n_neighbors=params.n_neighbors, w=params.w)
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
    table = generate(synth_config)
    write_log(table, opt["out"], delimiter=opt["delimiter"])
    log.info("wrote %d records to %s", len(table), opt["out"])


# name: (function, help, its options in parser order, and the defaults in
# which it differs from _FLAGS)
_COMMANDS = {
    "prepare": (cmd_prepare, "parse, filter, dedup, subsample, split",
                "input out delimiter user_col item_col rating_col timestamp_col filter max_users seed "
                "on_error", {}),
    "build-index": (cmd_build_index, "build and persist a neighbor index",
                    "dataset out measure ell rho lam scaling w n_neighbors rank_by", {}),
    # an empty measure checks nothing
    "evaluate": (cmd_evaluate, "evaluate an index on a split",
                 "dataset index out split topk measure", {"measure": ""}),
    "grid": (cmd_grid, "validation-driven hyperparameter sweep",
             "dataset out measure ells lambdas scalings rho w n_neighbors topk rank_by", {}),
    "sparsity-report": (cmd_sparsity_report, "average position-aware similarity by gap",
                        "dataset out ell n_neighbors w", {}),
    "synth": (cmd_synth, "generate a synthetic interaction log",
              "out users items min_len max_len signal reverse_noise seed delimiter", {}),
}


def _defaults(command: str) -> dict:
    """Each option of ``command`` in parser order, with its default."""
    _, _, options, own = _COMMANDS[command]
    return {key: own.get(key, _FLAGS[key]["default"]) for key in options.split()}


# the benchmark's command lines still pass --workers to these three
_IGNORES_WORKERS = ("build-index", "evaluate", "grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pasrec", description=__doc__)
    parser.add_argument("--config", type=str, default=None, help="key-value config file")
    parser.add_argument("-q", "--quiet", action="store_true", help="only warnings and errors")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _, _) in _COMMANDS.items():
        command_parser = sub.add_parser(name, help=help_text)
        for key, default in _defaults(name).items():
            # default None, so a config file can fill the option
            settings = dict(_FLAGS[key], default=None, help=_help(key, default))
            command_parser.add_argument("--" + key.replace("_", "-"), dest=key, **settings)
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
    try:
        opt = _resolve(args, _read_config(args.config), _defaults(args.command))
        _COMMANDS[args.command][0](opt)
        _write_snapshot(opt)
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
