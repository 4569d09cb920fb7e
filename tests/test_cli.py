import argparse
import json
import logging
import os
import subprocess
import sys

import pytest

import pasrec
from pasrec.cli import build_parser, main


def run(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture
def raw_log(tmp_path):
    path = tmp_path / "raw.dat"
    assert run(
        "synth", "--out", str(path), "--users", "120", "--items", "30",
        "--min-len", "5", "--max-len", "12", "--signal", "0.8", "--seed", "5",
    ) == 0
    return path


@pytest.fixture
def dataset_dir(tmp_path, raw_log):
    out = tmp_path / "data"
    assert run(
        "prepare", "--input", str(raw_log), "--out", str(out),
        "--max-users", "20000", "--seed", "1",
    ) == 0
    return out


def read_tsv(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header, *rows = lines
    columns = header.split("\t")
    return [dict(zip(columns, row.split("\t"))) for row in rows]


class TestPrepare:
    def test_outputs_and_stats(self, dataset_dir):
        for name in ("train.tsv", "valid.tsv", "test.tsv", "stats.json", "run_config.json"):
            assert (dataset_dir / name).exists()
        stats = json.loads((dataset_dir / "stats.json").read_text())
        assert stats["n_users"] == 120
        assert stats["n_records"] > 0
        assert abs(stats["n_users"] * stats["avg_length"] - stats["n_records"]) <= 0.01 * stats["n_records"]

    def test_rerun_byte_identical(self, tmp_path, raw_log):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        for out in (out1, out2):
            assert run("prepare", "--input", str(raw_log), "--out", str(out), "--seed", "9") == 0
        for name in ("train.tsv", "valid.tsv", "test.tsv", "stats.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_missing_input_fails(self, tmp_path, capsys):
        assert run("prepare", "--input", str(tmp_path / "nope.dat"), "--out", str(tmp_path / "d")) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_eligible_users_fails(self, tmp_path, capsys):
        raw = tmp_path / "tiny.dat"
        raw.write_text("u1::i1::5::1\nu1::i2::5::2\n")  # one user, too short to split
        assert run("prepare", "--input", str(raw), "--out", str(tmp_path / "d")) == 1
        assert "no users" in capsys.readouterr().err

    def test_tab_in_id_fails_with_line_number(self, tmp_path, capsys):
        raw = tmp_path / "tab.dat"
        raw.write_text("u1::i1::5::1\nu\t1::a::5::1\nu1::i2::5::2\n")
        assert run("prepare", "--input", str(raw), "--out", str(tmp_path / "d")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {raw}:2: ") and "tab or line break" in err

    def test_byte_order_mark_is_not_part_of_the_first_user(self, tmp_path):
        raw = tmp_path / "bom.dat"
        raw.write_bytes("\ufeffu1::i1::5::1\nu1::i2::5::2\nu1::i3::5::3\nu1::i4::5::4\n".encode("utf-8"))
        out = tmp_path / "d"
        assert run("prepare", "--input", str(raw), "--out", str(out)) == 0
        assert (out / "train.tsv").read_text(encoding="utf-8") == "u1\ti1\nu1\ti2\n"
        assert json.loads((out / "stats.json").read_text())["n_users"] == 1

    def test_byte_not_utf8_fails_with_line_number(self, tmp_path, capsys):
        raw = tmp_path / "latin1.dat"
        raw.write_bytes(b"u1::i1::5::1\nu1::i2::5::2\nu\xff::i3::5::3\nu1::i4::5::4\n")
        out = tmp_path / "d"
        assert run("prepare", "--input", str(raw), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {raw}:3: byte 0xff is not valid UTF-8\n"
        assert run("prepare", "--input", str(raw), "--out", str(out), "--on-error", "skip") == 0
        assert (out / "test.tsv").read_text() == "u1\ti4\n"

    @pytest.mark.parametrize("flags, message", [
        (["--max-users", "0"], "--max-users must be >= 1, got 0"),
        (["--rating-col", "-1"], "--filter rating_equals_5 needs a rating column: give --rating-col, "
                                 "or --filter all to keep every record"),
        (["--user-col", "-1"], "user_col must be a non-negative integer, got -1"),
        (["--timestamp-col", "-2"], "timestamp_col must be a non-negative integer, got -2"),
        (["--rating-col", "-7", "--filter", "all"], "rating_col must be a non-negative integer, got -7"),
    ], ids=["max-users-0", "rating-filter-without-rating-column", "negative-user-column",
            "negative-timestamp-column", "rating-column-below-minus-one"])
    def test_bad_option_fails_before_reading(self, tmp_path, capsys, flags, message):
        # the input does not exist, so only a check made before reading it
        # can give this message
        out = tmp_path / "d"
        assert run("prepare", "--input", str(tmp_path / "absent.dat"), "--out", str(out), *flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_logs_stage_counts(self, tmp_path, caplog):
        raw = tmp_path / "log.dat"
        # u1's i1 repeats, u2 rated i1 below 5, and the sample keeps u2
        raw.write_text("u1::i1::5::1\nu1::i2::5::2\nu1::i1::5::3\nu1::i3::5::4\nu1::i4::5::5\n"
                       "u2::i1::4::1\nu2::i2::5::2\nu2::i3::5::3\nu2::i4::5::4\n")
        with caplog.at_level(logging.INFO, logger="pasrec.cli"):
            assert run("prepare", "--input", str(raw), "--out", str(tmp_path / "d"), "--max-users", "1") == 0
        assert "prepare: 9 parsed, 8 kept positive, 7 after dedup, 3 after subsample" in caplog.text

    def test_filter_all_mode(self, tmp_path):
        raw = tmp_path / "reviews.tsv"
        raw.write_text("u1\ti1\t1\nu1\ti2\t2\nu1\ti3\t3\nu2\ti1\t1\nu2\ti3\t2\nu2\ti2\t3\n")
        out = tmp_path / "d"
        assert run(
            "prepare", "--input", str(raw), "--out", str(out), "--delimiter", "\t",
            "--rating-col", "-1", "--timestamp-col", "2", "--filter", "all",
        ) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["n_records"] == 6


class TestBuildIndex:
    def test_pas_artifact_has_k_values(self, tmp_path, dataset_dir):
        out = tmp_path / "pas.idx"
        assert run(
            "build-index", "--dataset", str(dataset_dir), "--out", str(out),
            "--measure", "pas", "--ell", "5",
        ) == 0
        data_rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert data_rows
        assert all(len(row.split("\t")[3].split(",")) == 5 for row in data_rows)

    def test_bis_artifact_single_value(self, tmp_path, dataset_dir):
        out = tmp_path / "bis.idx"
        assert run(
            "build-index", "--dataset", str(dataset_dir), "--out", str(out),
            "--measure", "bis", "--ell", "5",
        ) == 0
        data_rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert all(row.split("\t")[3] == "" for row in data_rows)

    def test_rebuild_identical(self, tmp_path, dataset_dir):
        out1, out2 = tmp_path / "a.idx", tmp_path / "b.idx"
        for out in (out1, out2):
            assert run(
                "build-index", "--dataset", str(dataset_dir), "--out", str(out),
                "--measure", "pas", "--ell", "5",
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_workers_do_not_change_artifact(self, tmp_path, dataset_dir):
        out1, out2 = tmp_path / "w1.idx", tmp_path / "w2.idx"
        for out, workers in ((out1, "1"), (out2, "2")):
            assert run(
                "build-index", "--dataset", str(dataset_dir), "--out", str(out),
                "--measure", "pas", "--ell", "5", "--workers", workers,
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "command, flag", [("build-index", "--ell-max"), ("sparsity-report", "--workers")]
    )
    def test_counting_knobs_are_gone(self, tmp_path, dataset_dir, command, flag):
        with pytest.raises(SystemExit) as exc:
            run(command, "--dataset", str(dataset_dir), "--out", str(tmp_path / "x"), flag, "2")
        assert exc.value.code == 2

    def test_missing_dataset_fails(self, tmp_path, capsys):
        assert run(
            "build-index", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "x.idx"),
        ) == 1
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    @pytest.fixture
    def index_path(self, tmp_path, dataset_dir):
        out = tmp_path / "pas.idx"
        assert run(
            "build-index", "--dataset", str(dataset_dir), "--out", str(out),
            "--measure", "pas", "--ell", "5",
        ) == 0
        return out

    def test_test_split_report(self, tmp_path, dataset_dir, index_path):
        out = tmp_path / "rep"
        assert run(
            "evaluate", "--dataset", str(dataset_dir), "--index", str(index_path),
            "--split", "test", "--topk", "5", "--out", str(out),
        ) == 0
        (row,) = read_tsv(out / "report.tsv")
        assert row["split"] == "test"
        assert 0.0 <= float(row["ndcg_at_k"]) <= float(row["one_call_at_k"]) <= 1.0

    def test_validation_split_label(self, tmp_path, dataset_dir, index_path):
        out = tmp_path / "repv"
        assert run(
            "evaluate", "--dataset", str(dataset_dir), "--index", str(index_path),
            "--split", "validation", "--out", str(out),
        ) == 0
        (row,) = read_tsv(out / "report.tsv")
        assert row["split"] == "validation"

    def test_missing_index_fails(self, tmp_path, dataset_dir, capsys):
        assert run(
            "evaluate", "--dataset", str(dataset_dir), "--index", str(tmp_path / "no.idx"),
            "--out", str(tmp_path / "rep"),
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_out_of_range_index_entry_fails_with_location(self, tmp_path, dataset_dir, index_path, capsys):
        with index_path.open("a") as fh:
            fh.write("9999\t0\t0.5\t\n")
        n_lines = len(index_path.read_text().splitlines())
        assert run(
            "evaluate", "--dataset", str(dataset_dir), "--index", str(index_path),
            "--out", str(tmp_path / "rep"),
        ) == 1
        assert f"{index_path}:{n_lines}: item id outside" in capsys.readouterr().err

    def test_index_byte_not_utf8_fails_with_location(self, tmp_path, dataset_dir, index_path, capsys):
        lines = index_path.read_bytes().splitlines(keepends=True)
        lines[7] = lines[7].replace(b"\t", b"\t\xff", 1)
        index_path.write_bytes(b"".join(lines))
        assert run(
            "evaluate", "--dataset", str(dataset_dir), "--index", str(index_path),
            "--out", str(tmp_path / "rep"),
        ) == 1
        assert f"{index_path}:8: byte 0xff is not valid UTF-8" in capsys.readouterr().err

    def test_truncated_index_header_fails_with_location(self, tmp_path, dataset_dir, index_path, capsys):
        index_path.write_text("#pasrec-index\t1\n")
        assert run(
            "evaluate", "--dataset", str(dataset_dir), "--index", str(index_path),
            "--out", str(tmp_path / "rep"),
        ) == 1
        assert f"{index_path}:2: file ends before the #measure header line" in capsys.readouterr().err

    def test_measure_mismatch_names_field(self, tmp_path, dataset_dir, index_path, capsys):
        assert run(
            "evaluate", "--dataset", str(dataset_dir), "--index", str(index_path),
            "--measure", "bis", "--out", str(tmp_path / "rep"),
        ) == 1
        assert "measure" in capsys.readouterr().err

    @pytest.mark.parametrize("topk", ["0", "-2"])
    def test_topk_below_one_fails_before_reading(self, tmp_path, capsys, topk):
        # neither input exists, so only a check made before reading them can
        # give this message
        out = tmp_path / "rep"
        assert run(
            "evaluate", "--dataset", str(tmp_path / "absent"), "--index", str(tmp_path / "no.idx"),
            "--topk", topk, "--out", str(out),
        ) == 1
        assert capsys.readouterr().err == f"error: --topk must be >= 1, got {topk}\n"
        assert not out.exists()

    def test_worker_reports_byte_identical(self, tmp_path, dataset_dir, index_path):
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"rep{workers}"
            assert run(
                "evaluate", "--dataset", str(dataset_dir), "--index", str(index_path),
                "--workers", workers, "--out", str(out),
            ) == 0
            outs.append(out)
        for name in ("report.tsv", "report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestGrid:
    def test_single_cell_grid(self, tmp_path, dataset_dir, capsys):
        out = tmp_path / "grid"
        assert run(
            "grid", "--dataset", str(dataset_dir), "--out", str(out),
            "--measure", "bis", "--ells", "3",
        ) == 0
        rows = read_tsv(out / "report.tsv")
        assert len(rows) == 2  # one validation row + one test row
        assert rows[0]["split"] == "validation" and rows[-1]["split"] == "test"
        assert "selected bis" in capsys.readouterr().out

    def test_sweep_row_count_and_defaults(self, tmp_path, dataset_dir):
        out = tmp_path / "grid2"
        assert run(
            "grid", "--dataset", str(dataset_dir), "--out", str(out),
            "--measure", "pas", "--ells", "2,3", "--lambdas", "0.0,0.5",
            "--scalings", "h_a,h_b",
        ) == 0
        rows = read_tsv(out / "report.tsv")
        assert len(rows) == 2 * 2 * 2 + 1
        assert all(row["rho"] == "0.2" and row["w"] == "2.0" and row["n_neighbors"] == "20"
                   for row in rows)

    def test_workers_flag_is_ignored(self, tmp_path, dataset_dir):
        outs = [tmp_path / "g1", tmp_path / "g2"]
        for out, extra in zip(outs, ((), ("--workers", "3"))):
            assert run(
                "grid", "--dataset", str(dataset_dir), "--out", str(out),
                "--measure", "pas", "--ells", "2,3", *extra,
            ) == 0
        for name in ("report.tsv", "report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert "workers" not in json.loads((outs[1] / "run_config.json").read_text())

    @pytest.mark.parametrize("topk", ["0", "-2"])
    def test_topk_below_one_fails_before_reading(self, tmp_path, capsys, topk):
        out = tmp_path / "g"
        assert run(
            "grid", "--dataset", str(tmp_path / "absent"), "--out", str(out), "--measure", "bis",
            "--ells", "3", "--topk", topk,
        ) == 1
        assert capsys.readouterr().err == f"error: --topk must be >= 1, got {topk}\n"
        assert not out.exists()

    def test_empty_grid_fails(self, tmp_path, dataset_dir, capsys):
        assert run(
            "grid", "--dataset", str(dataset_dir), "--out", str(tmp_path / "g"),
            "--measure", "pas", "--ells", "",
        ) == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build-index", "sparsity-report"])
@pytest.mark.parametrize("flag, value, message", [
    ("--ell", "0", "ell must be a positive integer, got 0"),
    ("--w", "1", "w must be a real number > 1, got 1.0"),
    ("--n-neighbors", "0", "n_neighbors must be an integer >= 1, got 0"),
], ids=["ell", "w", "n_neighbors"])
def test_bad_parameter_fails_before_reading(tmp_path, capsys, command, flag, value, message):
    # the dataset does not exist, so only a check made before reading it can
    # give this message
    out = tmp_path / "out"
    assert run(command, "--dataset", str(tmp_path / "absent"), "--out", str(out), flag, value) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


class TestSparsityReport:
    def test_shape_and_monotonicity(self, tmp_path, dataset_dir):
        out = tmp_path / "sparsity"
        assert run(
            "sparsity-report", "--dataset", str(dataset_dir), "--out", str(out),
            "--ell", "10", "--n-neighbors", "20",
        ) == 0
        rows = read_tsv(out / "sparsity.tsv")
        assert len(rows) == 10
        assert [row["G"] for row in rows] == [str(g) for g in range(10)]
        for column in ("h_a", "h_b", "h_c"):
            values = [float(row[column]) for row in rows]
            assert all(x >= y for x, y in zip(values, values[1:]))
        for row in rows:
            assert float(row["h_b"]) >= float(row["h_a"])
            assert float(row["h_c"]) >= float(row["h_a"])


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, raw_log):
        config = tmp_path / "run.conf"
        config.write_text(
            f"input = {raw_log}\n"
            "max-users = 50  # keep only fifty users\n"
            "seed = 3\n"
        )
        out = tmp_path / "data"
        assert run("--config", str(config), "prepare", "--out", str(out), "--seed", "4") == 0
        snapshot = json.loads((out / "run_config.json").read_text())
        assert snapshot["max_users"] == 50  # from config file
        assert snapshot["seed"] == 4  # flag wins
        stats = json.loads((out / "stats.json").read_text())
        assert stats["n_users"] == 50

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path, raw_log):
        config = tmp_path / "bom.conf"
        config.write_bytes(f"\ufeffmax-users = 7\ninput = {raw_log}\n".encode("utf-8"))
        out = tmp_path / "data"
        assert run("--config", str(config), "prepare", "--out", str(out)) == 0
        assert json.loads((out / "stats.json").read_text())["n_users"] == 7

    def test_config_byte_that_is_not_utf8_fails_with_location(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_bytes(b"users = 5\n\xff = 3\n")
        assert run("--config", str(config), "synth", "--out", str(tmp_path / "x")) == 1
        assert f"{config}:2: byte 0xff is not valid UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_malformed_config_fails(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("just words\n")
        assert run("--config", str(config), "synth", "--out", str(tmp_path / "x")) == 1
        assert "key = value" in capsys.readouterr().err

    def test_unknown_measure_in_config_fails_before_reading(self, tmp_path, capsys):
        # config values bypass argparse choices; the dataset is never opened
        config = tmp_path / "grid.conf"
        config.write_text("measure = foo\n")
        assert run(
            "--config", str(config), "grid", "--dataset", str(tmp_path / "absent"),
            "--out", str(tmp_path / "g"),
        ) == 1
        assert "unknown measure" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["elll = 3", "ell_max = 40", "ell-max = 40", "workers = 2"])
    def test_unknown_key_fails_with_location(self, tmp_path, dataset_dir, line, capsys):
        config = tmp_path / "build.conf"
        config.write_text(f"ell = 3\n{line}\n")
        out = tmp_path / "x.idx"
        assert run(
            "--config", str(config), "build-index", "--dataset", str(dataset_dir), "--out", str(out),
        ) == 1
        assert f"{config}:2: unknown option" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_option_fails(self, tmp_path, capsys):
        assert run("prepare", "--out", str(tmp_path / "d")) == 1
        assert "missing required" in capsys.readouterr().err


def command_parsers():
    """Each command's subparser, by name."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


COMMANDS = ["prepare", "build-index", "evaluate", "grid", "sparsity-report", "synth"]

# each command's required options, and what the others resolve to when only
# those are given
REQUIRED = {
    "prepare": ["input", "out"],
    "build-index": ["dataset", "out"],
    "evaluate": ["dataset", "index", "out"],
    "grid": ["dataset", "out"],
    "sparsity-report": ["dataset", "out"],
    "synth": ["out"],
}
DEFAULTS = {
    "prepare": dict(delimiter="::", user_col=0, item_col=1, rating_col=2, timestamp_col=3,
                    filter="rating_equals_5", max_users=20000, seed=0, on_error="raise"),
    "build-index": dict(measure="pas", ell=10, rho=0.2, lam=0.5, scaling="h_a", w=2.0,
                        n_neighbors=20, rank_by="bis"),
    "evaluate": dict(split="test", topk=5, measure=""),
    "grid": dict(measure="pas", ells=[5, 10, 20, 40], lambdas=[], scalings=[], rho=0.2,
                 w=2.0, n_neighbors=20, topk=5, rank_by="bis"),
    "sparsity-report": dict(ell=10, n_neighbors=20, w=2.0),
    "synth": dict(users=1000, items=200, min_len=10, max_len=30, signal=0.8,
                  reverse_noise=0.0, seed=0, delimiter="::"),
}


class TestCommandTable:
    def test_every_command_is_covered(self):
        assert sorted(command_parsers()) == sorted(COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_flags_are_the_snapshot_keys(self, tmp_path, raw_log, dataset_dir, command):
        index = tmp_path / "pas.idx"
        out = tmp_path / "out"
        argv = {
            "synth": ["--out", str(out)],
            "prepare": ["--input", str(raw_log), "--out", str(out)],
            "build-index": ["--dataset", str(dataset_dir), "--out", str(out), "--ell", "3"],
            "evaluate": ["--dataset", str(dataset_dir), "--index", str(index), "--out", str(out)],
            "grid": ["--dataset", str(dataset_dir), "--out", str(out), "--ells", "3"],
            "sparsity-report": ["--dataset", str(dataset_dir), "--out", str(out), "--ell", "3"],
        }[command]
        if command == "evaluate":
            assert run("build-index", "--dataset", str(dataset_dir), "--out", str(index), "--ell", "3") == 0
        assert run(command, *argv) == 0
        snapshot = out / "run_config.json" if out.is_dir() else tmp_path / "out.config.json"
        keys = set(json.loads(snapshot.read_text())) - {"format_version"}
        flags = {
            option[2:].replace("-", "_")
            for option in command_parsers()[command]._option_string_actions
            if option.startswith("--") and option not in ("--help", "--workers")
        }
        assert flags == keys

    @pytest.mark.parametrize("command", COMMANDS)
    def test_only_required_options_resolve_to_the_defaults(self, tmp_path, raw_log, dataset_dir, command):
        index = tmp_path / "pas.idx"
        out = tmp_path / "out"
        paths = {"input": str(raw_log), "dataset": str(dataset_dir), "index": str(index), "out": str(out)}
        required = REQUIRED[command]
        expected = dict(DEFAULTS[command])
        if command == "evaluate":
            assert run("build-index", "--dataset", str(dataset_dir), "--out", str(index), "--ell", "3") == 0
        assert run(command, *(arg for key in required for arg in ("--" + key, paths[key]))) == 0
        snapshot = out / "run_config.json" if out.is_dir() else tmp_path / "out.config.json"
        expected.update((key, paths[key]) for key in required)
        expected["format_version"] = 1
        # as text, so 2 in place of 2.0 or a list in place of a scalar differs
        assert snapshot.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_names_each_default(self, command):
        def shown(value):
            if isinstance(value, list):
                value = ",".join(map(str, value))
            return "none" if value == "" else value

        helps = {action.dest: action.help for action in command_parsers()[command]._actions
                 if action.dest not in ("help", "workers")}
        assert set(helps) == set(REQUIRED[command]) | set(DEFAULTS[command])
        for key, text in helps.items():
            suffix = "(required)" if key in REQUIRED[command] else f"(default: {shown(DEFAULTS[command][key])})"
            assert text.endswith(" " + suffix), key

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run(command, "--help")
        assert exc.value.code == 0
        assert f"pasrec {command}" in capsys.readouterr().out

    @pytest.mark.parametrize("line, argv", [
        ("ell = abc", ["build-index", "--dataset", "{absent}", "--out", "{out}"]),
        ("ells = 5,x", ["grid", "--dataset", "{absent}", "--out", "{out}"]),
        ("rank_by = foo", ["build-index", "--dataset", "{absent}", "--out", "{out}"]),
        ("filter = some", ["prepare", "--input", "{absent}", "--out", "{out}"]),
        ("split = train", ["evaluate", "--dataset", "{absent}", "--index", "{absent}", "--out", "{out}"]),
    ])
    def test_bad_config_value_fails_with_location(self, tmp_path, capsys, line, argv):
        # the inputs do not exist, so any error but the config's own means
        # an input was read first
        config = tmp_path / "run.conf"
        config.write_text(f"# bad value on line 2\n{line}\n")
        out = tmp_path / "out"
        paths = {"absent": str(tmp_path / "absent"), "out": str(out)}
        argv = [arg.format(**paths) for arg in argv]
        assert run("--config", str(config), *argv) == 1
        err = capsys.readouterr().err
        assert f"error: {config}:2: " in err
        assert line.split(" = ")[0] in err
        assert list(tmp_path.iterdir()) == [config]


class TestHeldOutItems:
    @pytest.mark.parametrize("split", ["validation", "test"])
    @pytest.mark.parametrize("name, item_of", [
        ("valid.tsv", lambda train, valid: train[0]),
        ("test.tsv", lambda train, valid: train[-1]),
        ("test.tsv", lambda train, valid: valid),
    ], ids=["validation-in-train", "test-in-train", "test-is-validation"])
    def test_repeated_held_out_item_fails_at_load(self, tmp_path, capsys, dataset_dir, split, name, item_of):
        index = tmp_path / "bis.idx"
        assert run("build-index", "--dataset", str(dataset_dir), "--out", str(index),
                   "--measure", "bis", "--ell", "3") == 0
        user, valid = (dataset_dir / "valid.tsv").read_text().splitlines()[0].split("\t")
        train = [item for line in (dataset_dir / "train.tsv").read_text().splitlines()
                 for u, item in [line.split("\t")] if u == user]
        path = dataset_dir / name
        rows = path.read_text().splitlines()
        path.write_text("\n".join([f"{user}\t{item_of(train, valid)}", *rows[1:]]) + "\n")
        out = tmp_path / "eval"
        assert run("evaluate", "--dataset", str(dataset_dir), "--index", str(index),
                   "--split", split, "--out", str(out)) == 1
        assert f"error: {path}:1: " in capsys.readouterr().err
        assert not out.exists()


class TestListFlags:
    @pytest.mark.parametrize("flag, value, expected", [
        ("--ells", "5,x", "comma-separated integers"),
        ("--lambdas", "0.5,q", "comma-separated numbers"),
        ("--scalings", "h_a,h_z", "comma-separated scalings from h_a, h_b, h_c"),
    ], ids=["ells", "lambdas", "scalings"])
    def test_bad_value_names_what_is_expected(self, tmp_path, capsys, flag, value, expected):
        with pytest.raises(SystemExit) as exc:
            run("grid", "--dataset", str(tmp_path / "absent"), "--out", str(tmp_path / "out"), flag, value)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected {expected}, got '{value}'" in err
        assert "_csv" not in err


def test_module_runs_as_a_program(tmp_path):
    src = os.path.dirname(os.path.dirname(pasrec.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def program(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "pasrec.cli", "-q", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True)

    done = program("synth", "--out", "raw.dat", "--users", "4", "--items", "8", "--min-len", "3",
                   "--max-len", "5")
    assert (done.returncode, done.stderr) == (0, "")
    assert len((tmp_path / "raw.dat").read_text().splitlines()) >= 12
    failed = program("synth", "--out", "bad.dat", "--users", "0", "--items", "8")
    assert failed.returncode == 1
    assert failed.stderr.startswith("error: ")
