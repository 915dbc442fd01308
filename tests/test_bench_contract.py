"""The benchmark's tracer (perfbench/tracing.py) wraps this program's
functions at their module attributes and reads the kernel's arguments by
position.  A tiny `infer` and `sweep` with chains on, and `infer` with
chains off, run under it must leave no wrapped layer absent and no count
unreadable; the chains-on commands must reach the ADMM kernel."""

import sys
from pathlib import Path

from arglogic.cli import main
from arglogic.model import bundle_to_record, dump_jsonl, pair_to_record
from arglogic.synth import SynthConfig, generate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
from workloads import TINY_SYNTH  # noqa: E402


def test_tracer_finds_every_layer_and_counts_kernel_iterations(tmp_path):
    graph, bundles, _ = generate(SynthConfig(seed=1, **TINY_SYNTH))
    args, scores = tmp_path / "arguments.jsonl", tmp_path / "scores.jsonl"
    dump_jsonl((pair_to_record(graph.pairs[pid]) for pid in sorted(graph.pairs)), args)
    dump_jsonl((bundle_to_record(bundles[pid]) for pid in sorted(bundles)), scores)

    tracer = tracing.Tracer()
    # the chains-on commands reach the kernel; flat's `infer --chains off`
    # is solved in closed form
    commands = (("infer", "on"), ("sweep", "on"), ("infer", "off"))
    for pass_id, (command, chains) in enumerate(commands):
        tracer.pass_id = pass_id
        tracer.install(timed=True)
        try:
            main([command, str(args), str(scores), "--chains", chains,
                  "--out", str(tmp_path / f"{command}-{chains}.out")], standalone_mode=False)
        finally:
            tracer.uninstall()
        counts = tracing.pass_counts(tracer.outcomes, pass_id)
        if chains == "on":
            assert counts.get("kernels.iterations", 0) > 0, command
    assert tracer.absent == set()
    assert tracer.absent_layers() == []
    assert tracer.count_errors == set()
