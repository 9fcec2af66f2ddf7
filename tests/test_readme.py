"""The README's Python quickstart runs against the current API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_quickstart_runs(capsys):
    section = README.read_text().split("## Python quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "False True"
