import ast
import json
import re
import shlex
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from arglogic.chains import _MANIFEST_TABLE
from arglogic.cli import main
from arglogic.infer import PREDICTION_TABLES
from arglogic.model import BUNDLE_TABLE, PAIR_TABLE
from arglogic.rules import CONFIG_TABLE, expand_grid

README = Path(__file__).resolve().parents[1] / "README.md"
FORMATS = README.with_name("FORMATS.md")
PYPROJECT = README.with_name("pyproject.toml")
PACKAGE = README.with_name("src") / "arglogic"


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


def formats_examples() -> dict:
    """FORMATS.md's JSON examples, each by the title of its section (the
    heading before any parenthesis)."""
    examples = {}
    for section in re.split(r"^## ", FORMATS.read_text(), flags=re.M)[1:]:
        example = re.search(r"```json\n(.*?)```", section, re.S)
        if example:
            examples[section.split("\n", 1)[0].split(" (")[0]] = json.loads(example.group(1))
    return examples


def test_formats_examples_read_through_their_tables(tmp_path):
    """Each JSON example of FORMATS.md reads through the table of its kind
    and writes back as it stands; the config's grid expands, and the eval
    report holds the keys that `eval --baseline --out` writes."""
    examples = formats_examples()
    assert sorted(examples) == ["Argument pairs", "Evaluation report", "Manifest",
                                "Predictions", "Rule-set config", "Score bundles"]
    for title, table in (("Argument pairs", PAIR_TABLE), ("Score bundles", BUNDLE_TABLE),
                         ("Predictions", PREDICTION_TABLES["ternary"]),
                         ("Manifest", _MANIFEST_TABLE)):
        assert table.write(table.read(examples[title])) == examples[title], title
    config, grids = CONFIG_TABLE.read(examples["Rule-set config"])
    assert len(expand_grid(config, grids)) == 6

    runner = CliRunner()
    args, scores, preds, rand, report = (str(tmp_path / name) for name in (
        "args.jsonl", "scores.jsonl", "preds.jsonl", "rand.jsonl", "report.json"))
    for argv in (["synth", "--seed", "1", "--out-arguments", args, "--out-scores", scores],
                 ["infer", args, scores, "--out", preds],
                 ["baseline", args, scores, "--which", "random", "--out", rand],
                 ["eval", preds, args, "--baseline", rand, "--resamples", "20",
                  "--out", report]):
        res = runner.invoke(main, argv)
        assert res.exit_code == 0, res.output

    def keys(record):
        return {key: keys(value) if isinstance(value, dict) else None
                for key, value in record.items()}
    assert keys(examples["Evaluation report"]) == keys(json.loads(Path(report).read_text()))


def test_every_third_party_import_is_a_declared_dependency():
    """The top-level modules the package imports, less the standard
    library's and its own, are exactly `[project].dependencies`."""
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"arglogic"}
    declared = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert third_party == {re.match(r"[A-Za-z0-9_.-]+", name).group() for name in declared}
