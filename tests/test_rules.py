import dataclasses
import math

import pytest

from arglogic import infer, kernels
from arglogic.model import ValidationError
from arglogic.rules import (
    CONFIG_TABLE,
    LOGIC_RULES,
    MAX_WEIGHT,
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


@pytest.mark.parametrize("what, config", [
    ("prior weight", lambda w: RuleSetConfig(w_prior=w)),
    ("chain weight", lambda w: RuleSetConfig(chains=True, w_chain=w)),
    ("weight for R3", lambda w: RuleSetConfig(w_logic={"R3": w}))])
def test_weight_above_the_bound_or_nan_rejected(what, config):
    build_ruleset(config(MAX_WEIGHT))
    for weight in (math.nextafter(MAX_WEIGHT, math.inf), math.nan):
        with pytest.raises(ValidationError, match=f"{what} not finite or above"):
            build_ruleset(config(weight))


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
    assert row.raw_objective == alone.total_energy
    assert row.normalized_objective == alone.total_energy / alone.total_weight


@pytest.mark.parametrize("hinge_power", ["linear", "squared"])
def test_sweep_grounds_once_and_matches_run_inference_alone(val_dataset, recorded_sweep,
                                                            hinge_power):
    graph, bundles, _ = val_dataset
    configs = expand_grid(RuleSetConfig(chains=True, hinge_power=hinge_power), {})
    best, rows, results, ground_calls = recorded_sweep(configs, graph, bundles)
    assert len(results) == len(configs)
    assert ground_calls == results[0].n_components > 1
    for config, row, result in zip(configs, rows, results):
        assert row.config == config
        assert_same_as_alone(config, row, result, graph, bundles)


def test_run_inference_refuses_another_structures_grounding(val_dataset):
    graph, bundles, _ = val_dataset
    grounding = infer.ground_graph(graph, bundles, RuleSetConfig(chains=True),
                                   restrict_split="val")
    with pytest.raises(ValueError, match="structure"):
        infer.run_inference(graph, bundles, RuleSetConfig(chains=True, hinge_power="squared"),
                            restrict_split="val", grounding=grounding)


def test_sweep_errors_name_the_configs(val_dataset, monkeypatch):
    graph, bundles, _ = val_dataset
    configs = expand_grid(RuleSetConfig(chains=True), {"w_chain": [1.0, 0.5],
                                                       "w_prior": [0.2, 0.3]})

    bad = configs[:2] + [dataclasses.replace(configs[2], w_prior=-1.0)]
    with pytest.raises(ValidationError, match="negative prior weight") as exc:
        sweep(bad, graph, bundles)
    assert str(exc.value).startswith(f"sweep config #2 ({bad[2]}): ")

    # the ranking compares configs that ground the same rows only
    mixed = configs[:2] + [dataclasses.replace(configs[2], hinge_power="squared"), configs[3]]
    with pytest.raises(ValidationError, match="only w_chain and w_prior may differ") as exc:
        sweep(mixed, graph, bundles)
    assert str(exc.value).startswith(f"sweep config #2 ({mixed[2]}): ")

    # a NaN in the joined solve names every config
    def nan_kernel(*args):
        raise FloatingPointError("ADMM produced NaN iterates")
    monkeypatch.setattr(kernels, "solve_admm", nan_kernel)
    with pytest.raises(RuntimeError, match="NaN") as exc:
        sweep(configs, graph, bundles)
    assert str(exc.value).startswith(
        "; ".join(f"sweep config #{i} ({c})" for i, c in enumerate(configs)) + " failed: ")


def test_sweep_over_configs_that_ground_no_row(val_dataset, recorded_sweep):
    """With every rule weight 0 no row is grounded, so each config's energy
    and weight mass are 0 and its normalised objective reads 0."""
    graph, bundles, _ = val_dataset
    silent = RuleSetConfig(w_logic=dict.fromkeys(LOGIC_RULES, 0.0), w_prior=0.0)
    best, rows, results, _ = recorded_sweep([silent, silent], graph, bundles)
    assert best == silent
    assert [(r.n_potentials, r.total_weight) for r in results] == [(0, 0.0)] * 2
    assert [(r.raw_objective, r.normalized_objective) for r in rows] == [(0.0, 0.0)] * 2
