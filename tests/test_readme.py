import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_usage_runs_as_written(capsys):
    """The README's library example runs against the public API and prints
    a macro F1."""
    section = README.read_text().split("## Library usage", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
