"""The README's library example runs as written against the current API."""
import pathlib
import re

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
