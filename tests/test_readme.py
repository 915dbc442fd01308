import re
import shlex
from pathlib import Path

from arglogic.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_usage_runs_as_written(capsys):
    """The README's library example runs against the public API and prints
    a macro F1."""
    section = README.read_text().split("## Library usage", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0


def test_command_line_block_runs_as_written(tmp_path, monkeypatch):
    """The README's shell block runs, command by command, through the CLI
    entry point in an empty directory: synth, plan, infer, sweep,
    baseline and eval, each on the files the ones before it wrote."""
    section = README.read_text().split("## Command-line usage", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    assert [argv[:2] for argv in commands] == [
        ["arglogic", name] for name in ("synth", "plan", "infer", "sweep", "baseline", "eval")]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        main(argv[1:], standalone_mode=False)
    for name in ("args.jsonl", "scores.jsonl", "manifest.jsonl", "preds.jsonl", "sweep.json",
                 "rand.jsonl", "report.json"):
        assert (tmp_path / name).stat().st_size > 0, name
