"""The benchmark's tracer (perfbench/tracing.py) wraps this program's
functions at their module attributes and reads the kernel's arguments by
position.  A tiny `infer` and `sweep` with chains on, and `infer` with
chains off, run under it must leave no wrapped layer absent and no count
unreadable; the chains-on commands must reach the ADMM kernel.  The
benchmark's inputs, and a valid record of every table, must be read by the
compiled readers alone, never by the walker that words errors.  A sweep
must give the benchmark one `infer.run_inference` result per grid point,
in config order, and solve each batch of its programs in one kernel call."""

import json
import sys
from pathlib import Path

import numpy as np

from arglogic import infer, model
from arglogic.chains import _MANIFEST_TABLE
from arglogic.cli import main
from arglogic.infer import PREDICTION_TABLES
from arglogic.model import (BUNDLE_TABLE, PAIR_TABLE, bundle_to_record, dump_jsonl, load_dataset,
                            pair_to_record)
from arglogic.rules import CONFIG_TABLE, RuleSetConfig
from arglogic.synth import SYNTH_TABLE, SynthConfig, generate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
from workloads import SWEEP_GRID_POINTS, TASK_MODE, TINY_SYNTH, WORKLOADS  # noqa: E402


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


def test_sweep_gives_one_inference_result_per_grid_point_in_config_order(tmp_path):
    args, scores = write_inputs(tmp_path, TINY_SYNTH)
    out = tmp_path / "sweep.json"
    tracer = tracing.Tracer()
    tracer.install(timed=False)
    try:
        main(["sweep", str(args), str(scores), "--chains", "on", "--out", str(out)],
             standalone_mode=False)
    finally:
        tracer.uninstall()
    results = [c["result"] for _, name, c in tracer.outcomes if name == "infer.run_inference"]
    rows = json.loads(out.read_text())["configs"]
    assert len(results) == len(rows) == SWEEP_GRID_POINTS
    val_ids = {r["pair_id"] for r in map(json.loads, args.read_text().splitlines())
               if r.get("split") == "val" and r.get("kind", "direct") == "direct"}
    assert val_ids
    objectives = [row["normalized_objective"] for row in rows]
    assert len(set(objectives)) == len(objectives)
    for result, objective in zip(results, objectives):
        assert set(result.predictions) == val_ids
        assert result.total_energy / result.total_weight == objective


def test_sweep_makes_one_kernel_call_per_batch(tmp_path):
    """A batch is joined under every grid point of the default sweep in
    one solve: a full batch fits the joined cap, and on the tiny input
    each batch is one `solver.solve_map_admm` and one `kernels.solve_admm`
    call."""
    assert infer.MAX_JOINED_COPIES >= SWEEP_GRID_POINTS * infer.MAX_BATCH_COPIES
    args, scores = write_inputs(tmp_path, TINY_SYNTH)
    graph, bundles = load_dataset(str(args), str(scores), TASK_MODE)
    grounding = infer.ground_graph(graph, bundles, RuleSetConfig(chains=True),
                                   restrict_split="val")
    n_batches = len(list(infer._batches(grounding.programs, infer.MAX_BATCH_COPIES)))
    assert n_batches >= 1
    tracer = tracing.Tracer()
    tracer.install(timed=False)
    try:
        main(["sweep", str(args), str(scores), "--chains", "on",
              "--out", str(tmp_path / "sweep.json")], standalone_mode=False)
    finally:
        tracer.uninstall()
    calls = [name for _, name, _ in tracer.outcomes]
    assert calls.count("solver.solve_map_admm") == n_batches
    assert calls.count("kernels.solve_admm") == n_batches


def test_kernel_copy_updates_count_the_hinge_copies(tmp_path):
    """The tracer's `kernels.copy_updates` is each kernel call's iterations
    times the copies it iterates on: the hinge copies of its ADMM blocks,
    those of the rows of several atoms, and not the one-atom rows."""
    args, scores = write_inputs(tmp_path, TINY_SYNTH)
    graph, bundles = load_dataset(str(args), str(scores), TASK_MODE)
    config = RuleSetConfig(chains=True)
    tracer = tracing.Tracer()
    tracer.install(timed=False)
    try:
        result = infer.run_inference(graph, bundles, config)
    finally:
        tracer.uninstall()
    grounding = infer.ground_graph(graph, bundles, config)
    batches = list(infer._batches(grounding.programs, infer.MAX_BATCH_COPIES))
    assert len(batches) == len(result.solved)
    hinge = [sum(int(np.sum(np.bincount(p.copy_pot)[p.copy_pot] > 1)) for p in batch)
             for batch, _ in batches]
    expected = sum(a.iterations * h for (_, a), h in zip(result.solved, hinge))
    assert tracing.pass_counts(tracer.outcomes, 0)["kernels.copy_updates"] == expected > 0


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
