"""The benchmark's tracer (perfbench/tracing.py) wraps this program's
functions at their module attributes and reads the kernel's arguments by
position.  A tiny `infer` and `sweep` with chains on, and `infer` with
chains off, run under it must leave no wrapped layer absent and no count
unreadable; the chains-on commands must reach the ADMM kernel.  The
benchmark's inputs, and a valid record of every table, must be read by the
compiled readers alone, never by the walker that words errors."""

import sys
from pathlib import Path

from arglogic import model
from arglogic.chains import _MANIFEST_TABLE
from arglogic.cli import main
from arglogic.infer import PREDICTION_TABLES
from arglogic.model import BUNDLE_TABLE, PAIR_TABLE, bundle_to_record, dump_jsonl, pair_to_record
from arglogic.rules import CONFIG_TABLE
from arglogic.synth import SYNTH_TABLE, SynthConfig, generate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
from workloads import TINY_SYNTH, WORKLOADS  # noqa: E402


def write_inputs(tmp_path, synth):
    """The arguments and scores files of `synth.generate`, as perfbench/gen.py writes them."""
    graph, bundles, _ = generate(SynthConfig(seed=1, **synth))
    args, scores = tmp_path / "arguments.jsonl", tmp_path / "scores.jsonl"
    dump_jsonl((pair_to_record(graph.pairs[pid]) for pid in sorted(graph.pairs)), args)
    dump_jsonl((bundle_to_record(bundles[pid]) for pid in sorted(bundles)), scores)
    return args, scores


def test_tracer_finds_every_layer_and_counts_kernel_iterations(tmp_path):
    args, scores = write_inputs(tmp_path, TINY_SYNTH)

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


# One valid record of every table; the nested tables are read inside them.
VALID_RECORDS = [
    (PAIR_TABLE, {"pair_id": "p", "statement_id": "s", "claim_id": "c", "gold": "support"}),
    (_MANIFEST_TABLE, {"pair_id": "p", "statement_id": "s", "claim_id": "c", "kind": "direct"}),
    (BUNDLE_TABLE, {
        "pair_id": "p", "nli": {"p_ent": 0.7, "p_con": 0.2, "p_neu": 0.1},
        "fact_pairs": [{"slots": [{"p_ent": 0.9, "p_con": 0.05}]}],
        "senti_pairs": [{"p_match": 0.5, "s_stmt": {"p_pos": 0.6, "p_neg": 0.2, "p_neu": 0.2},
                         "s_claim": {"p_pos": 0.7, "p_neg": 0.1, "p_neu": 0.2}}],
        "causal": {"sc_cause": 0.1, "sc_obstruct": 0.8, "cs_cause": 0.0, "cs_obstruct": 0.0},
        "normative": {"p_conseq": 0.9, "p_norm": 0.1, "q_pos": 0.6, "q_neg": 0.1,
                      "p_adv": 0.5, "p_opp": 0.2, "r_consist": 0.7, "r_contra": 0.1}}),
    (PREDICTION_TABLES["ternary"], {"pair_id": "p", "support": 0.5, "attack": 0.25,
                                    "neutral": 0.25, "predicted": "support"}),
    (PREDICTION_TABLES["binary"], {"pair_id": "p", "support": 0.5, "attack": 0.5,
                                   "predicted": "attack", "energy_share": 0.1,
                                   "converged": False}),
    (CONFIG_TABLE, {"task_mode": "ternary", "w_logic": {"R1": 0.5}, "w_chain": 1,
                    "grids": {"w_chain": [1.0, 0.5], "w_prior": [0.2]}, "chains": True}),
    (CONFIG_TABLE, {"w_logic": 2.0}),
    (SYNTH_TABLE, {"n_topics": 3, "fractions": {"support": 0.5, "attack": 0.5},
                   "mechanism_mix": {"fact": 1.0}, "split_fractions": {"test": 1},
                   "task_mode": "binary", "informative_strength": 0.8, "seed": 2}),
]


def test_benchmark_inputs_never_reach_the_walker(tmp_path, monkeypatch):
    flat = WORKLOADS["flat"]
    args, scores = write_inputs(tmp_path, flat.synth)
    reached = []

    def walker(table, value, line):
        reached.append((line, value))
        raise AssertionError("the walker read a record")

    monkeypatch.setattr(model, "_read", walker)
    command, *options = flat.command
    main([command, str(args), str(scores), *options, "--out", str(tmp_path / "out.jsonl")],
         standalone_mode=False)
    for table, record in VALID_RECORDS:
        table.read(record, 1)
    assert reached == []
