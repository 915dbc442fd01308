import dataclasses

import pytest

from arglogic import infer
from arglogic.model import ValidationError
from arglogic.rules import (
    CONFIG_TABLE,
    RuleSetConfig,
    SweepRow,
    build_ruleset,
    expand_grid,
    sweep,
)
from arglogic.synth import SynthConfig, generate


def test_ternary_with_chains_counts():
    rules = build_ruleset(RuleSetConfig(chains=True))
    assert len(rules) == 18  # R1-R13 + R14-R17 + C1
    assert not any(r.id == "C2" for r in rules)


def test_binary_without_chains_counts():
    rules = build_ruleset(RuleSetConfig(task_mode="binary", chains=False))
    assert len(rules) == 14  # R1-R13 + C1
    assert not any(r.id == "C2" for r in rules)
    prior = next(r for r in rules if r.id == "C1")
    assert prior.head == "attack"


def test_default_grid_is_six_configs():
    base = RuleSetConfig(chains=True)
    configs = expand_grid(base, {})
    assert len(configs) == 6
    assert {(c.w_chain, c.w_prior) for c in configs} == {
        (1.0, 0.2), (1.0, 0.3), (0.5, 0.2), (0.5, 0.3), (0.1, 0.2), (0.1, 0.3)}


def test_negative_weight_rejected():
    with pytest.raises(ValidationError):
        build_ruleset(RuleSetConfig(w_prior=-0.1))
    with pytest.raises(ValidationError):
        build_ruleset(RuleSetConfig(chains=True, w_chain=-1))
    with pytest.raises(ValidationError):
        build_ruleset(RuleSetConfig(w_logic={"R3": -2.0}))


def test_build_ruleset_deterministic():
    cfg = RuleSetConfig(chains=True, w_chain=0.5)
    assert build_ruleset(cfg) == build_ruleset(cfg)


def test_config_from_record_scalar_logic_weight():
    cfg, grids = CONFIG_TABLE.read({"w_logic": 0.5, "task_mode": "binary"})
    assert grids == {}
    assert cfg.logic_weight("R7") == 0.5
    assert cfg.task_mode == "binary"


def test_empty_grid_rejected():
    with pytest.raises(ValidationError, match="empty"):
        expand_grid(RuleSetConfig(), {"w_prior": []})


@pytest.fixture(scope="module")
def val_dataset():
    cfg = SynthConfig(n_topics=3, tree_depth=3, branching=2, noise_sigma=0.8,
                      seed=21, split_fractions={"fit": 0.0, "val": 1.0, "test": 0.0})
    return generate(cfg)


def test_sweep_singleton(val_dataset):
    graph, bundles, _ = val_dataset
    cfg = RuleSetConfig(w_prior=0.2)
    best, rows = sweep([cfg], graph, bundles)
    assert best == cfg
    assert len(rows) == 1 and rows[0].raw_objective >= 0


def test_sweep_argmin_and_determinism(val_dataset):
    graph, bundles, _ = val_dataset
    configs = expand_grid(RuleSetConfig(chains=True), {})
    best1, rows1 = sweep(configs, graph, bundles)
    best2, rows2 = sweep(configs, graph, bundles)
    assert best1 == best2
    assert [r.normalized_objective for r in rows1] == [
        r.normalized_objective for r in rows2]
    winner = min(rows1, key=lambda r: r.normalized_objective)
    assert best1 == winner.config


def test_sweep_ignores_gold_labels(val_dataset):
    graph, bundles, _ = val_dataset
    configs = expand_grid(RuleSetConfig(chains=True), {})
    best, rows = sweep(configs, graph, bundles)

    corrupted = dataclasses.replace(graph)
    corrupted.pairs = {
        pid: p._replace(gold={"support": "attack", "attack": "neutral",
                              "neutral": "support"}[p.gold] if p.gold else None)
        for pid, p in graph.pairs.items()}
    best_c, rows_c = sweep(configs, corrupted, bundles)
    assert best_c == best
    assert [r.normalized_objective for r in rows_c] == [
        r.normalized_objective for r in rows]


def test_sweep_requires_validation_split():
    cfg = SynthConfig(n_topics=1, tree_depth=2, branching=2, seed=0,
                      split_fractions={"fit": 0.0, "val": 0.0, "test": 1.0})
    graph, bundles, _ = generate(cfg)
    with pytest.raises(ValidationError, match="validation split"):
        sweep([RuleSetConfig()], graph, bundles)


@pytest.fixture
def recorded_sweep(monkeypatch):
    """Runs sweep with `arglogic.infer.ground` and `run_inference` counted;
    returns (best, rows, the inference results, the ground call count)."""
    ground_calls = []
    results = []
    ground, run = infer.ground, infer.run_inference

    def counted_ground(*args, **kwargs):
        ground_calls.append(1)
        return ground(*args, **kwargs)

    def recorded_run(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    def run_sweep(configs, graph, bundles):
        ground_calls.clear()
        results.clear()
        with monkeypatch.context() as m:
            m.setattr(infer, "ground", counted_ground)
            m.setattr(infer, "run_inference", recorded_run)
            best, rows = sweep(configs, graph, bundles)
        return best, rows, list(results), len(ground_calls)
    return run_sweep


def assert_same_as_alone(config, row, result, graph, bundles):
    alone = infer.run_inference(graph, bundles, config, restrict_split="val")
    assert {p: (v.scores, v.predicted) for p, v in result.predictions.items()} == {
        p: (v.scores, v.predicted) for p, v in alone.predictions.items()}
    assert row.raw_objective == pytest.approx(alone.total_energy, rel=1e-12, abs=0)
    assert row.normalized_objective == pytest.approx(
        alone.total_energy / alone.total_weight, rel=1e-12, abs=0)


def test_sweep_grounds_once_and_matches_run_inference_alone(val_dataset, recorded_sweep):
    graph, bundles, _ = val_dataset
    configs = expand_grid(RuleSetConfig(chains=True), {})
    best, rows, results, ground_calls = recorded_sweep(configs, graph, bundles)
    assert len(results) == len(configs)
    assert ground_calls == results[0].n_components > 1
    for config, row, result in zip(configs, rows, results):
        assert row.config == config
        assert_same_as_alone(config, row, result, graph, bundles)


def test_sweep_over_structures_grounds_once_per_structure(val_dataset, recorded_sweep):
    graph, bundles, _ = val_dataset
    grids = {"w_chain": [1.0, 0.0], "w_prior": [0.3]}
    linear = expand_grid(RuleSetConfig(chains=True), grids)
    squared = expand_grid(RuleSetConfig(chains=True, hinge_power="squared"), grids)
    configs = [c for pair in zip(linear, squared) for c in pair]
    best, rows, results, ground_calls = recorded_sweep(configs, graph, bundles)
    assert ground_calls == 2 * results[0].n_components
    for config, row, result in zip(configs, rows, results):
        assert_same_as_alone(config, row, result, graph, bundles)

    grounding = infer.ground_graph(graph, bundles, linear[0], restrict_split="val")
    with pytest.raises(ValueError, match="structure"):
        infer.run_inference(graph, bundles, squared[0], restrict_split="val",
                            grounding=grounding)
