"""README's CLI commands and Library example run as written on the
shipped case-1 config."""

import importlib.resources
import re
import shlex
from pathlib import Path

from conftest import load_case_raw
from yslot.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    code = library_block()
    namespace = {"config_dict": load_case_raw(1)}
    exec(compile(code, str(README), "exec"), namespace)
    assert all(c.ok for c in namespace["checks"])
    # an expression line commented with a number shows that value
    shown = 0
    for line in code.splitlines():
        expr, _, comment = line.partition("#")
        value = re.match(r"\s*(\d[\d.]*)", comment)
        if expr.strip() and value:
            assert str(eval(expr, namespace)).startswith(
                value.group(1).rstrip(".")), line
            shown += 1
    assert shown == 2


def cli_commands() -> list[list[str]]:
    """The `yslot` lines of README's CLI block, continuations joined and
    $CFG set to the shipped case-1 config."""
    text = README.read_text()
    section = text[text.index("## CLI"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    cfg = str(importlib.resources.files("yslot").joinpath("data/example8_case1.json"))
    lines = block.replace("\\\n", " ").replace("$CFG", shlex.quote(cfg)).splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("yslot ")]


def test_readme_cli_commands_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = cli_commands()
    assert len(commands) == 7
    for argv in commands:
        assert main(argv) == 0, argv
    assert {p.name for p in tmp_path.iterdir()} == {"table.csv", "grid.txt"}
