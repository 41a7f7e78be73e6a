"""README's Library example runs as written on the shipped case-1 config."""

import re
from pathlib import Path

from conftest import load_case_raw

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
