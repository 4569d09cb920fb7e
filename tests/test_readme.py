"""The README's library example runs as written against the current API,
and its command lines parse."""
import pathlib
import re
import shlex

from pasrec.cli import build_parser

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no python block under '## Library'"
    return match.group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6  # five recommendations and one NDCG value
    assert 0.0 <= float(lines[-1]) <= 1.0


def command_lines() -> list[list[str]]:
    """The ``pasrec ...`` lines of the README's Command line block, split as
    a shell would, without the program name."""
    section = README.read_text(encoding="utf-8").split("## Command line\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("pasrec ")]


def test_command_line_examples_parse():
    examples = command_lines()
    assert [argv[0] for argv in examples] == [
        "synth", "prepare", "build-index", "evaluate", "grid", "sparsity-report",
    ]
    for argv in examples:
        build_parser().parse_args(argv)
