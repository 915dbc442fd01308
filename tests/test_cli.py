import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import arglogic
from arglogic import cli
from arglogic.baselines import BASELINES
from arglogic.cli import main
from arglogic.infer import PREDICTION_TABLES, run_inference
from arglogic.model import bundle_to_record, dump_jsonl, load_dataset, pair_to_record
from arglogic.synth import SynthConfig, generate


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory, runner):
    """A small synthetic dataset written via the CLI itself."""
    root = tmp_path_factory.mktemp("data")
    cfg = root / "synth.json"
    cfg.write_text(json.dumps({
        "n_topics": 3, "tree_depth": 3, "branching": 2, "seed": 11,
        "noise_sigma": 0.3,
        "split_fractions": {"fit": 0.0, "val": 0.3, "test": 0.7}}))
    args_path = root / "arguments.jsonl"
    scores_path = root / "scores.jsonl"
    res = runner.invoke(main, ["synth", "--config", str(cfg),
                               "--out-arguments", str(args_path),
                               "--out-scores", str(scores_path)])
    assert res.exit_code == 0, res.output
    return root, args_path, scores_path


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_synth_writes_both_files(dataset):
    _, args_path, scores_path = dataset
    args = read_jsonl(args_path)
    scores = read_jsonl(scores_path)
    assert len(args) == len(scores) > 50
    assert {a["pair_id"] for a in args} == {s["pair_id"] for s in scores}


def test_plan_manifest(dataset, runner, tmp_path):
    _, args_path, scores_path = dataset
    out = tmp_path / "manifest.jsonl"
    res = runner.invoke(main, ["plan", str(args_path),
                               "--scores", str(scores_path),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    manifest = read_jsonl(out)
    # every direct pair is scored, so the manifest holds only indirect pairs
    assert manifest and all(r["kind"] == "indirect" for r in manifest)
    assert "chain triples" in res.output


def test_infer_eval_round_trip(dataset, runner, tmp_path):
    _, args_path, scores_path = dataset
    preds_path = tmp_path / "preds.jsonl"
    res = runner.invoke(main, ["infer", str(args_path), str(scores_path),
                               "--out", str(preds_path)])
    assert res.exit_code == 0, res.output
    preds = read_jsonl(preds_path)
    args = read_jsonl(args_path)
    assert len(preds) == len(args)
    for rec in preds:
        total = rec["support"] + rec["attack"] + rec["neutral"]
        assert abs(total - 1.0) <= 1e-6
        assert rec["predicted"] in ("support", "attack", "neutral")

    report_path = tmp_path / "report.json"
    res = runner.invoke(main, ["eval", str(preds_path), str(args_path),
                               "--out", str(report_path)])
    assert res.exit_code == 0, res.output
    assert "ACC" in res.output
    report = json.loads(report_path.read_text())
    assert 0.0 <= report["accuracy"] <= 1.0
    assert report["n_pairs"] < len(args)  # test split only


def test_infer_deterministic(dataset, runner, tmp_path):
    _, args_path, scores_path = dataset
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (out1, out2):
        res = runner.invoke(main, ["infer", str(args_path), str(scores_path),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
    assert out1.read_text() == out2.read_text()


def test_infer_all_ablated_defaults_to_neutral(dataset, runner, tmp_path):
    _, args_path, scores_path = dataset
    out = tmp_path / "ablated.jsonl"
    res = runner.invoke(main, ["infer", str(args_path), str(scores_path),
                               "--ablate", "fact", "--ablate", "sentiment",
                               "--ablate", "causal", "--ablate", "normative",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert all(r["predicted"] == "neutral" for r in read_jsonl(out))


def test_ablation_changes_predictions(dataset, runner, tmp_path):
    _, args_path, scores_path = dataset
    full, part = tmp_path / "full.jsonl", tmp_path / "part.jsonl"
    runner.invoke(main, ["infer", str(args_path), str(scores_path),
                         "--out", str(full)])
    runner.invoke(main, ["infer", str(args_path), str(scores_path),
                         "--ablate", "fact", "--out", str(part)])
    assert full.read_text() != part.read_text()


def test_sweep_reports_best(dataset, runner, tmp_path):
    _, args_path, scores_path = dataset
    out = tmp_path / "sweep.json"
    res = runner.invoke(main, ["sweep", str(args_path), str(scores_path),
                               "--chains", "on", "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads(out.read_text())
    assert len(report["configs"]) == 6  # 3 chain weights x 2 prior weights
    assert report["best"]["w_chain"] in (1.0, 0.5, 0.1)
    assert report["best"]["w_prior"] in (0.2, 0.3)
    assert "best config" in res.output


def test_baseline_commands(dataset, runner, tmp_path):
    _, args_path, scores_path = dataset
    for which in ("random", "sentiment", "entailment"):
        out = tmp_path / f"{which}.jsonl"
        res = runner.invoke(main, ["baseline", str(args_path),
                                   str(scores_path), "--which", which,
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        recs = read_jsonl(out)
        assert len(recs) == len(read_jsonl(args_path))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_infer_writes_json_dumps_of_each_prediction(runner, tmp_path, monkeypatch, seed):
    """`infer` writes its lines straight from the solver's arrays; each is the
    line of `json.dumps(sort_keys=True)` over the prediction's record, in
    pair-id order.  `baseline` writes its records through `dump_jsonl`."""
    results = []

    def run_and_keep(*args, **kwargs):
        results.append(run_inference(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "run_inference", run_and_keep)
    for mode in ("ternary", "binary"):
        overrides = {"fractions": {"support": 0.5, "attack": 0.5}} if mode == "binary" else {}
        graph, bundles, _ = generate(SynthConfig(seed=seed, task_mode=mode, **overrides))
        args_path, scores_path = tmp_path / "args.jsonl", tmp_path / "scores.jsonl"
        dump_jsonl((pair_to_record(graph.pairs[p]) for p in sorted(graph.pairs)), args_path)
        dump_jsonl((bundle_to_record(bundles[p]) for p in sorted(bundles)), scores_path)
        write = PREDICTION_TABLES[mode].write

        def lines(predictions):
            return "".join(json.dumps(write(predictions[pid]), sort_keys=True) + "\n"
                           for pid in sorted(predictions))
        for chains in ("on", "off"):
            out = tmp_path / f"{mode}-{chains}.jsonl"
            res = runner.invoke(main, ["infer", str(args_path), str(scores_path), "--mode", mode,
                                       "--chains", chains, "--out", str(out)])
            assert res.exit_code == 0, res.output
            predictions = results.pop().predictions
            assert len(predictions) == len(graph.direct_pairs())
            assert out.read_text() == lines(predictions)
        out = tmp_path / f"{mode}-random.jsonl"
        res = runner.invoke(main, ["baseline", str(args_path), str(scores_path), "--mode", mode,
                                   "--which", "random", "--seed", str(seed), "--out", str(out)])
        assert res.exit_code == 0, res.output
        graph, bundles = load_dataset(args_path, scores_path, mode)
        assert out.read_text() == lines(BASELINES["random"](graph, bundles, seed))


def test_eval_with_baseline_bootstrap(dataset, runner, tmp_path):
    _, args_path, scores_path = dataset
    preds = tmp_path / "preds.jsonl"
    rand = tmp_path / "rand.jsonl"
    runner.invoke(main, ["infer", str(args_path), str(scores_path),
                         "--out", str(preds)])
    runner.invoke(main, ["baseline", str(args_path), str(scores_path),
                         "--which", "random", "--out", str(rand)])
    out = tmp_path / "cmp.json"
    res = runner.invoke(main, ["eval", str(preds), str(args_path),
                               "--baseline", str(rand),
                               "--resamples", "500", "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads(out.read_text())
    assert set(report["p_values"]) == {"accuracy", "macro_f1"}
    assert "paired bootstrap" in res.output


def test_eval_report_holds_null_for_an_undefined_auc(runner, tmp_path):
    """Three gold-support pairs: no label has both a positive and a negative
    pair, so the macro AUC is undefined, and the report is strict JSON."""
    args_path, scores_path = tmp_path / "args.jsonl", tmp_path / "scores.jsonl"
    res = runner.invoke(main, ["synth", "--seed", "1", "--out-arguments", str(args_path),
                               "--out-scores", str(scores_path)])
    assert res.exit_code == 0, res.output
    chosen = [r for r in read_jsonl(args_path)
              if r["gold"] == "support" and r["split"] == "test"][:3]
    ids = {r["pair_id"] for r in chosen}
    args_path.write_text("".join(json.dumps(r) + "\n" for r in chosen))
    scores_path.write_text("".join(json.dumps(r) + "\n" for r in read_jsonl(scores_path)
                                   if r["pair_id"] in ids))
    preds, report = tmp_path / "preds.jsonl", tmp_path / "report.json"
    res = runner.invoke(main, ["infer", str(args_path), str(scores_path), "--out", str(preds)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["eval", str(preds), str(args_path), "--out", str(report)])
    assert res.exit_code == 0, res.output

    def no_constant(name):
        raise ValueError(f"{name} is not JSON")
    payload = json.loads(report.read_text(), parse_constant=no_constant)
    assert payload["macro_auc"] is None
    assert payload["n_pairs"] == 3 and payload["support_counts"]["support"] == 3
    # the printed table says so too, in the AUC column
    head, row = res.output.splitlines()[:2]
    assert head.split()[:2] == ["ACC", "AUC"]
    assert row.split()[1:3] == ["100.0", "n/a"] and "nan" not in row
    assert len(row) == len(head) and row[16 + 8:16 + 16] == "     n/a"


@pytest.mark.parametrize("command, option, value", [
    ("eval", "--resamples", "0"),
    ("eval", "--resamples", "-5"),
    ("eval", "--seed", "-1"),
    ("baseline", "--seed", "-1"),
])
def test_out_of_range_number_exit_code_2(dataset, runner, tmp_path, command, option, value):
    _, args_path, scores_path = dataset
    rand = tmp_path / "rand.jsonl"
    runner.invoke(main, ["baseline", str(args_path), str(scores_path),
                         "--which", "random", "--out", str(rand)])
    if command == "eval":
        argv = ["eval", str(rand), str(args_path), "--baseline", str(rand)]
    else:
        argv = ["baseline", str(args_path), str(scores_path), "--which", "random",
                "--out", str(tmp_path / "out.jsonl")]
    res = runner.invoke(main, argv + [option, value])
    assert res.exit_code == 2, res.output
    assert option in res.output and "internal error" not in res.output


def test_validation_error_exit_code_2(dataset, runner, tmp_path):
    _, args_path, _ = dataset
    bad_scores = tmp_path / "bad.jsonl"
    bad_scores.write_text(json.dumps(
        {"pair_id": "nope", "nli": {"p_ent": 1.0, "p_con": 0.0,
                                    "p_neu": 0.0}}) + "\n")
    out = tmp_path / "out.jsonl"
    res = runner.invoke(main, ["infer", str(args_path), str(bad_scores),
                               "--out", str(out)])
    assert res.exit_code == 2
    assert "error:" in res.output


@pytest.mark.parametrize("command", ["infer", "sweep"])
def test_out_in_missing_directory_exit_code_2(dataset, runner, tmp_path, command,
                                              monkeypatch):
    _, args_path, scores_path = dataset
    out = tmp_path / "missing" / "out.jsonl"
    called = []
    for name in ("load_dataset", "run_inference", "sweep"):
        monkeypatch.setattr(f"arglogic.cli.{name}", lambda *a, name=name, **k: called.append(name))
    res = runner.invoke(main, [command, str(args_path), str(scores_path), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert str(out) in res.output and "internal error" not in res.output
    assert called == []  # the check comes before the work


def test_self_loop_line_exit_code_2(dataset, runner, tmp_path):
    _, args_path, scores_path = dataset
    lines = args_path.read_text().splitlines(keepends=True)
    loop = json.dumps({"pair_id": "loop", "statement_id": "x", "claim_id": "x"}) + "\n"
    bad_args = tmp_path / "args.jsonl"
    bad_args.write_text("".join(lines[:2]) + loop + "".join(lines[2:]))
    res = runner.invoke(main, ["infer", str(bad_args), str(scores_path),
                               "--out", str(tmp_path / "out.jsonl")])
    assert res.exit_code == 2, res.output
    assert "line 3: pair 'loop': statement_id equals claim_id" in res.output


def test_missing_file_exit_code_2(runner, tmp_path):
    res = runner.invoke(main, ["plan", str(tmp_path / "missing.jsonl"),
                               "--out", str(tmp_path / "m.jsonl")])
    assert res.exit_code == 2


def test_chain_scenario_synth(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n_topics": 2, "tree_depth": 3, "branching": 2, "seed": 5,
        "noise_sigma": 0.3, "task_mode": "binary",
        "fractions": {"support": 0.5, "attack": 0.5},
        "split_fractions": {"fit": 0.0, "val": 0.0, "test": 1.0}}))
    args_path = tmp_path / "args.jsonl"
    scores_path = tmp_path / "scores.jsonl"
    mask_path = tmp_path / "mask.jsonl"
    res = runner.invoke(main, ["synth", "--config", str(cfg),
                               "--chain-scenario",
                               "--out-arguments", str(args_path),
                               "--out-scores", str(scores_path),
                               "--out-mask", str(mask_path)])
    assert res.exit_code == 0, res.output
    masked = {r["pair_id"] for r in read_jsonl(mask_path)}
    assert masked
    kinds = {r["pair_id"]: r["kind"] for r in read_jsonl(args_path)}
    assert "indirect" in set(kinds.values())
    assert all(kinds[pid] == "direct" for pid in masked)

    # inference with chains on recovers the masked pairs end to end
    on = tmp_path / "on.jsonl"
    res = runner.invoke(main, ["infer", str(args_path), str(scores_path),
                               "--mode", "binary", "--chains", "on",
                               "--out", str(on)])
    assert res.exit_code == 0, res.output
    golds = {r["pair_id"]: r["gold"] for r in read_jsonl(args_path)
             if r.get("gold")}
    preds = {r["pair_id"]: r["predicted"] for r in read_jsonl(on)}
    hits = sum(preds[pid] == golds[pid] for pid in masked)
    assert hits / len(masked) > 0.9


def test_energy_shares_sum_to_one_per_component(runner, tmp_path):
    from arglogic.model import connected_components, load_arguments

    args_path, scores_path = tmp_path / "args.jsonl", tmp_path / "scores.jsonl"
    res = runner.invoke(main, ["synth", "--seed", "1",
                               "--out-arguments", str(args_path),
                               "--out-scores", str(scores_path)])
    assert res.exit_code == 0, res.output
    out = tmp_path / "preds.jsonl"
    res = runner.invoke(main, ["infer", str(args_path), str(scores_path),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    shares = {r["pair_id"]: r["energy_share"] for r in read_jsonl(out)}
    components = connected_components(load_arguments(args_path, "ternary"))
    assert len(components) > 1
    for comp in components:
        comp_shares = [shares[p.pair_id] for p in comp]
        assert (abs(sum(comp_shares) - 1.0) <= 1e-9
                or all(s == 0.0 for s in comp_shares))


def run_with_config(dataset, runner, tmp_path, text):
    _, args_path, scores_path = dataset
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    return runner.invoke(main, ["infer", str(args_path), str(scores_path),
                                "--config", str(cfg),
                                "--out", str(tmp_path / "out.jsonl")])


def test_malformed_config_json_exit_code_2(dataset, runner, tmp_path):
    res = run_with_config(dataset, runner, tmp_path, '{"chains": true,')
    assert res.exit_code == 2
    assert "invalid JSON" in res.output and "config" in res.output


@pytest.mark.parametrize("field, value", [
    ("chains", "false"), ("prior_on_indirect", "false"), ("w_chain", "heavy")])
def test_config_field_of_wrong_type_exit_code_2(dataset, runner, tmp_path,
                                                field, value):
    res = run_with_config(dataset, runner, tmp_path,
                          json.dumps({field: value}))
    assert res.exit_code == 2
    assert field in res.output


def test_config_unknown_logic_rule_exit_code_2(dataset, runner, tmp_path):
    res = run_with_config(dataset, runner, tmp_path,
                          json.dumps({"w_logic": {"R99": 0.5}}))
    assert res.exit_code == 2
    assert "w_logic" in res.output and "R99" in res.output


@pytest.mark.parametrize("text, field", [
    ('{"n_topics": 3,', "invalid JSON"),
    ('{"n_topics": "3"}', "n_topics"),
    ('{"nope": 1}', "nope"),
    ('{"seed": -1}', "seed"),
    ('{"task_mode": "quaternary"}', "task_mode"),
    ('{"split_fractions": {"val": 0}}', "split_fractions"),
    ('{"noise_sigma": 1e308}', "noise_sigma"),
    ('{"split_fractions": {"fit": 1e308, "val": 1e308, "test": 1e308}}', "split_fractions"),
    ('{"mechanism_mix": {"fact": 1e308, "causal": 1e308}}', "mechanism_mix")])
def test_synth_config_errors_exit_code_2(runner, tmp_path, text, field):
    cfg = tmp_path / "synth.json"
    cfg.write_text(text)
    res = runner.invoke(main, ["synth", "--config", str(cfg),
                               "--out-arguments", str(tmp_path / "a.jsonl"),
                               "--out-scores", str(tmp_path / "s.jsonl")])
    assert res.exit_code == 2
    assert field in res.output


def test_score_block_not_an_object_exit_code_2(dataset, runner, tmp_path):
    _, args_path, _ = dataset
    pair_id = read_jsonl(args_path)[0]["pair_id"]
    scores = tmp_path / "scores.jsonl"
    scores.write_text(json.dumps({"pair_id": pair_id, "nli": [0.1, 0.2]}) + "\n")
    res = runner.invoke(main, ["infer", str(args_path), str(scores),
                               "--out", str(tmp_path / "out.jsonl")])
    assert res.exit_code == 2
    assert "line 1" in res.output and "'nli'" in res.output


LEFT_OUT = object()


@pytest.mark.parametrize("change, field", [
    ({"predicted": "maybe"}, "predicted"),
    ({"support": "x"}, "support"),
    ({"converged": "no"}, "converged"),
    ({"support": 0.9, "attack": 0.9, "neutral": 0.9}, "support"),
    ({"support": LEFT_OUT}, "support")])
def test_eval_malformed_prediction_exit_code_2(dataset, runner, tmp_path,
                                               change, field):
    _, args_path, _ = dataset
    record = {"pair_id": read_jsonl(args_path)[0]["pair_id"], "support": 0.5,
              "attack": 0.3, "neutral": 0.2, "predicted": "support"}
    record = {key: value for key, value in {**record, **change}.items() if value is not LEFT_OUT}
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps(record) + "\n")
    res = runner.invoke(main, ["eval", str(preds), str(args_path)])
    assert res.exit_code == 2
    assert "line 1" in res.output and field in res.output


def test_eval_duplicate_prediction_exit_code_2(runner, tmp_path):
    args_path, scores_path = tmp_path / "args.jsonl", tmp_path / "scores.jsonl"
    res = runner.invoke(main, ["synth", "--seed", "3", "--out-arguments", str(args_path),
                               "--out-scores", str(scores_path)])
    assert res.exit_code == 0, res.output
    preds = tmp_path / "preds.jsonl"
    res = runner.invoke(main, ["infer", str(args_path), str(scores_path),
                               "--out", str(preds)])
    assert res.exit_code == 0, res.output
    lines = preds.read_text().splitlines()
    first = json.loads(lines[0])
    relabelled = next(label for label in ("support", "attack", "neutral")
                      if label != first["predicted"])
    repeated = {**first, "predicted": relabelled}
    preds.write_text("\n".join(lines + [json.dumps(repeated)]) + "\n")
    res = runner.invoke(main, ["eval", str(preds), str(args_path)])
    assert res.exit_code == 2
    assert f"line {len(lines) + 1}" in res.output
    assert "duplicate" in res.output and first["pair_id"] in res.output


def test_out_mask_without_chain_scenario_exit_code_2(runner, tmp_path):
    """Only the chain scenario masks pairs: a mask path without it is an
    error, reported before any file is written."""
    res = runner.invoke(main, ["synth", "--seed", "1",
                               "--out-arguments", str(tmp_path / "args.jsonl"),
                               "--out-scores", str(tmp_path / "scores.jsonl"),
                               "--out-mask", str(tmp_path / "mask.jsonl")])
    assert res.exit_code == 2
    assert "--out-mask" in res.output and "--chain-scenario" in res.output
    assert not any(tmp_path.iterdir())


def test_chain_scenario_synth_ignores_hash_seed(tmp_path):
    """Two interpreters with different string hash seeds write the same files."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(arglogic.__file__).resolve().parents[1])}
    written = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        out.mkdir()
        subprocess.run(
            [sys.executable, "-m", "arglogic.cli", "synth", "--seed", "1",
             "--chain-scenario", "--out-arguments", str(out / "args.jsonl"),
             "--out-scores", str(out / "scores.jsonl"),
             "--out-mask", str(out / "mask.jsonl")],
            env={**env, "PYTHONHASHSEED": hash_seed}, check=True,
            capture_output=True)
        written.append([(out / name).read_bytes()
                        for name in ("args.jsonl", "scores.jsonl", "mask.jsonl")])
    assert written[0] == written[1]


@pytest.mark.parametrize("text, field", [
    ('{"w_logic": {"R1": 1e400}}', "'w_logic.R1'"),
    ('{"w_chain": 1e400}', "'w_chain'"),
    ('{"grids": {"w_prior": [0.2, 1e400]}}', "'grids.w_prior[1]'")])
def test_config_number_not_finite_exit_code_2(dataset, runner, tmp_path, text, field):
    res = run_with_config(dataset, runner, tmp_path, text)
    assert res.exit_code == 2
    assert field in res.output


@pytest.mark.parametrize("config, expected", [
    ({"w_logic": {"R4": 2e6}}, "weight for R4 not finite or above"),
    ({"w_logic": 1e308, "hinge_power": "squared"}, "weight for R1 not finite or above"),
    ({"w_chain": 1e308, "chains": True, "hinge_power": "squared"},
     "chain weight not finite or above"),
    ({"w_prior": 1e308, "hinge_power": "squared"}, "prior weight not finite or above")])
def test_config_weight_above_the_bound_exit_code_2(dataset, runner, tmp_path, config, expected):
    """A weight above rules.MAX_WEIGHT would overflow a hinge step, a row
    energy or the weight mass; it is rejected before anything is solved."""
    res = run_with_config(dataset, runner, tmp_path, json.dumps(config))
    assert res.exit_code == 2, res.output
    assert expected in res.output


@pytest.mark.parametrize("change, field", [
    ({"nli": {"p_ent": "0.7", "p_con": 0.2, "p_neu": 0.1}}, "'nli.p_ent'"),
    ({"causal": {"sc_cause": True}}, "'causal.sc_cause'"),
    ({"pair_id": {"a": 1}}, "'pair_id'")])
def test_score_or_id_of_wrong_json_type_exit_code_2(dataset, runner, tmp_path, change, field):
    """Probabilities are JSON numbers and ids JSON strings, in both files."""
    _, args_path, scores_path = dataset
    args, scores = read_jsonl(args_path), read_jsonl(scores_path)
    if "pair_id" in change:
        args[0].update(change)
    else:
        scores[0] = {"pair_id": scores[0]["pair_id"], **change}
    for path, records in ((tmp_path / "args.jsonl", args), (tmp_path / "scores.jsonl", scores)):
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
    res = runner.invoke(main, ["infer", str(tmp_path / "args.jsonl"),
                               str(tmp_path / "scores.jsonl"), "--out", str(tmp_path / "o.jsonl")])
    assert res.exit_code == 2
    assert "line 1" in res.output and field in res.output


@pytest.mark.parametrize("file, change, field", [
    ("arguments", {"extra": 1}, "'extra'"),
    ("scores", {"nope": 1}, "'nope'"),
    ("scores", {"causal": {"sc_caus": 0.9}}, "'causal.sc_caus'"),
    ("config", {"nope": 1}, "'nope'")])
def test_unknown_field_exit_code_2(dataset, runner, tmp_path, file, change, field):
    """A field the format does not define is an error at any depth."""
    _, args_path, scores_path = dataset
    args, scores = read_jsonl(args_path), read_jsonl(scores_path)
    config = {}
    {"arguments": args[0], "scores": scores[0], "config": config}[file].update(change)
    for path, records in ((tmp_path / "args.jsonl", args), (tmp_path / "scores.jsonl", scores)):
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
    (tmp_path / "config.json").write_text(json.dumps(config))
    res = runner.invoke(main, ["infer", str(tmp_path / "args.jsonl"), str(tmp_path / "scores.jsonl"),
                               "--config", str(tmp_path / "config.json"),
                               "--out", str(tmp_path / "o.jsonl")])
    assert res.exit_code == 2
    assert field in res.output and ("line 1" in res.output or file == "config")


@pytest.mark.parametrize("config, expected", [
    ({"grids": {"w_chain": [-1.0]}}, ["grids.w_chain"]),
    ({"hinge_power": 2}, ["hinge_power", "sweep config #0"]),
    ({"grids": 5}, ["grids"]),
    ({"grids": {"w_chain": "abc"}}, ["grids.w_chain"]),
    ({"grids": {"w_chain": 1.0}}, ["grids.w_chain"]),
    ({"grids": {"w_prior": [True]}}, ["grids.w_prior"]),
    ({"grids": {"nope": [1]}}, ["grids", "nope"]),
    ({"grids": {"w_prior": [0.2, 1e308]}}, ["sweep config #1", "prior weight not finite or above"]),
    ({"chains": True, "grids": {"w_chain": [1e7, 1.0]}},
     ["sweep config #0", "chain weight not finite or above"]),
    # with chains off a chain weight changes nothing: its axis is refused
    ({"grids": {"w_chain": [1.0, 0.5, 0.1]}}, ["grids.w_chain", "chains on"]),
    # base weights the grid replaces are still checked, as `infer` checks them
    ({"w_prior": 1e308}, ["prior weight not finite or above"]),
    ({"chains": True, "w_chain": 1e308}, ["chain weight not finite or above"])])
def test_sweep_config_errors_exit_code_2(dataset, runner, tmp_path, config, expected):
    _, args_path, scores_path = dataset
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    res = runner.invoke(main, ["sweep", str(args_path), str(scores_path),
                               "--config", str(cfg), "--out", str(tmp_path / "sweep.json")])
    assert res.exit_code == 2
    assert all(text in res.output for text in expected), res.output
