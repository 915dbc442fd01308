"""Acceptance gate: the ten release criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print; under default capture they appear in the captured output of any
failing criterion.
"""

import functools
import time

import numpy as np
import pytest

from arglogic import kernels
from arglogic.baselines import predict_random
from arglogic.grounding import ground
from arglogic.infer import PairPrediction, run_inference
from arglogic.metrics import compute_metrics, paired_bootstrap
from arglogic.model import ArgumentGraph, ArgumentPair, NliScores
from arglogic.predicates import (
    PredicateVector,
    eval_fact_conflict,
    eval_normative,
    eval_sentiment,
    evaluate_all,
)
from arglogic.rules import RuleSetConfig, build_ruleset, expand_grid, sweep
from arglogic.solver import solve_map_admm
from arglogic.synth import SynthConfig, generate, plant_chain_scenario
from conftest import blocks, index_of, random_ground_program
from reference import solve_map_grid
from test_predicates import random_bundle


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[ACCEPTANCE] {name}: FAIL", flush=True)
                raise
            print(f"[ACCEPTANCE] {name}: PASS", flush=True)

        return wrapper

    return deco


ALL_TEST = {"fit": 0.0, "val": 0.0, "test": 1.0}


@criterion("solver correctness vs grid oracle (100 programs, <60s)")
def test_01_solver_matches_grid_oracle():
    start = time.time()
    for seed in range(100):
        prog = random_ground_program(seed)
        a = solve_map_admm(prog)
        g = solve_map_grid(prog, 0.05)
        tol = max(1e-3, 0.05 * prog.total_weight)
        assert abs(a.energy - g.energy) <= tol, seed
    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@criterion("feasibility of every emitted assignment (1e-6)")
def test_02_feasibility():
    for seed in range(30):
        prog = random_ground_program(seed + 500)
        a = solve_map_admm(prog)
        for block in blocks(prog):
            vals = a.values[list(block)]
            assert abs(vals.sum() - 1.0) <= 1e-6
            assert (vals >= -1e-6).all()
    # inference-level outputs expose the same invariant via label scores
    graph, bundles, _ = generate(SynthConfig(
        n_topics=2, tree_depth=2, branching=2, seed=8,
        split_fractions=ALL_TEST))
    result = run_inference(graph, bundles, RuleSetConfig())
    for pred in result.predictions.values():
        assert abs(sum(pred.scores.values()) - 1.0) <= 1e-6
        assert all(v >= -1e-6 for v in pred.scores.values())


@criterion("predicate formula identities (exact + 1e-9 on 10^4 bundles)")
def test_03_formula_identities():
    from arglogic.model import (
        NormativeScores,
        SentiDist,
        SentiPairScores,
        SlotScore,
        TuplePairScores,
    )

    tp = TuplePairScores((SlotScore(0.9, 0.05), SlotScore(0.1, 0.8),
                          SlotScore(0.7, 0.1)))
    assert eval_fact_conflict((tp,)) == pytest.approx(0.504, abs=1e-12)
    mixed = SentiPairScores(0.5, SentiDist(0.6, 0.2, 0.2),
                            SentiDist(0.7, 0.1, 0.2))
    conflict, coherent = eval_sentiment((mixed,))
    assert conflict == pytest.approx(0.10, abs=1e-12)
    assert coherent == pytest.approx(0.22, abs=1e-12)
    n = NormativeScores(0, 0.9, 0, 0, 0.8, 0.2, 0.5, 0.3)
    _, _, bn, rn = eval_normative(n)
    assert bn == pytest.approx(0.414, abs=1e-12)
    assert rn == pytest.approx(0.306, abs=1e-12)

    rng = np.random.default_rng(1)
    for _ in range(10_000):
        bundle = random_bundle(rng)
        vec = evaluate_all(bundle)
        nv = bundle.normative
        assert vec.backing_conseq + vec.refuting_conseq == pytest.approx(
            nv.p_conseq * (nv.q_pos + nv.q_neg) * (nv.r_consist + nv.r_contra),
            abs=1e-9)
        assert vec.backing_norm + vec.refuting_norm == pytest.approx(
            nv.p_norm * (nv.p_adv + nv.p_opp) * (nv.r_consist + nv.r_contra),
            abs=1e-9)


@criterion("analytic vertex: full entailment vs 0.2 prior -> support=1, "
           "energy 0.200")
def test_04_analytic_vertex():
    g = ArgumentGraph(task_mode="ternary")
    g.add_pair(ArgumentPair("p1", "s", "c"))
    cfg = RuleSetConfig(w_prior=0.2)
    prog = ground(build_ruleset(cfg), list(g),
                  {"p1": PredicateVector(fact_entail=1.0)},
                  task_mode="ternary")
    a = solve_map_admm(prog)
    assert a.labels["p1"] == "support"
    assert a.values[index_of(prog, "p1", "support")] == pytest.approx(
        1.0, abs=1e-4)
    assert a.energy == pytest.approx(0.200, abs=1e-6)


@criterion("noiseless separability (5,000 pairs, <30s)")
def test_05_noiseless_separability():
    cfg = SynthConfig(n_topics=90, tree_depth=3, branching=3,
                      noise_sigma=0.0, seed=12, split_fractions=ALL_TEST)
    graph, bundles, golds = generate(cfg)
    assert len(golds) >= 5000
    start = time.time()
    result = run_inference(graph, bundles, RuleSetConfig())
    elapsed = time.time() - start
    non_neutral = {p: g for p, g in golds.items() if g != "neutral"}
    acc_nn = compute_metrics(
        {p: result.predictions[p] for p in non_neutral}, non_neutral,
        "ternary").accuracy
    acc_all = compute_metrics(result.predictions, golds, "ternary").accuracy
    assert acc_nn == 1.0
    assert acc_all >= 0.99
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@criterion("noisy superiority over random baseline (>=20 F1 points, p<0.001)")
def test_06_noisy_superiority():
    cfg = SynthConfig(n_topics=36, tree_depth=3, branching=3,
                      noise_sigma=1.0, seed=13, split_fractions=ALL_TEST)
    graph, bundles, golds = generate(cfg)
    assert len(golds) >= 2000
    psl = run_inference(graph, bundles, RuleSetConfig()).predictions
    rand = predict_random(graph, seed=13)
    f1_psl = compute_metrics(psl, golds, "ternary").macro_f1
    f1_rand = compute_metrics(rand, golds, "ternary").macro_f1
    assert f1_psl - f1_rand >= 0.20
    p = paired_bootstrap(psl, rand, golds, "ternary",
                         n_resamples=2000, seed=0)
    assert p["macro_f1"] < 0.001


@criterion("chain rules recover masked pairs (strictly positive margin)")
def test_07_chain_benefit():
    cfg = SynthConfig(n_topics=6, tree_depth=3, branching=3,
                      task_mode="binary", noise_sigma=0.3, seed=5,
                      fractions={"support": 0.5, "attack": 0.5},
                      split_fractions=ALL_TEST)
    sc = plant_chain_scenario(cfg, mask_fraction=0.3)
    assert len(sc.masked) == 70
    off = run_inference(sc.graph, sc.bundles,
                        RuleSetConfig(task_mode="binary", chains=False))
    on = run_inference(sc.graph, sc.bundles,
                       RuleSetConfig(task_mode="binary", chains=True))
    masked_golds = {p: sc.golds[p] for p in sc.masked}
    f_off = compute_metrics({p: off.predictions[p] for p in masked_golds},
                            masked_golds, "binary").macro_f1
    f_on = compute_metrics({p: on.predictions[p] for p in masked_golds},
                           masked_golds, "binary").macro_f1
    margin = f_on - f_off
    assert margin > 0.0
    # value frozen from the first run of this seeded scenario
    assert margin == pytest.approx(0.6603773584905661, abs=1e-9)


@criterion("ablating the normative mechanism reduces macro F1")
def test_08_ablation_direction():
    cfg = SynthConfig(n_topics=10, tree_depth=3, branching=3,
                      noise_sigma=0.5, seed=14,
                      mechanism_mix={"normative": 1.0, "fact": 1.0},
                      split_fractions=ALL_TEST)
    graph, bundles, golds = generate(cfg)
    n_norm = sum(1 for b in bundles.values() if b.normative is not None)
    assert 0.4 <= n_norm / len(bundles) <= 0.6
    full = run_inference(graph, bundles, RuleSetConfig()).predictions
    ablated = run_inference(graph, bundles, RuleSetConfig(),
                            ablate=frozenset({"normative"})).predictions
    f_full = compute_metrics(full, golds, "ternary").macro_f1
    f_ablated = compute_metrics(ablated, golds, "ternary").macro_f1
    assert f_ablated < f_full


@criterion("weight sweep: deterministic winner, never consults gold")
def test_09_sweep_protocol():
    cfg = SynthConfig(n_topics=3, tree_depth=3, branching=2,
                      noise_sigma=0.8, seed=21,
                      split_fractions={"fit": 0.0, "val": 1.0, "test": 0.0})
    graph, bundles, _ = generate(cfg)
    configs = expand_grid(RuleSetConfig(chains=True), {})
    assert len(configs) == 6
    best1, rows1 = sweep(configs, graph, bundles)
    best2, _ = sweep(configs, graph, bundles)
    assert (best1.w_chain, best1.w_prior) == (best2.w_chain, best2.w_prior)
    assert len(rows1) == 6

    corrupted = ArgumentGraph(task_mode=graph.task_mode)
    flip = {"support": "attack", "attack": "neutral", "neutral": "support"}
    for pair in graph:
        corrupted.add_pair(ArgumentPair(
            pair.pair_id, pair.statement_id, pair.claim_id, pair.kind,
            flip[pair.gold], pair.split))
    best3, _ = sweep(configs, corrupted, bundles)
    assert (best3.w_chain, best3.w_prior) == (best1.w_chain, best1.w_prior)


@criterion("metrics: hand-computed confusion + uniform AUC 0.5 +/- 0.02")
def test_10_metrics():
    def onehot(pid, label):
        scores = {l: 1.0 * (l == label)
                  for l in ("support", "attack", "neutral")}
        return PairPrediction(pid, scores, label, 0.0, True)

    golds = {"p0": "support", "p1": "attack", "p2": "neutral"}
    preds = {"p0": onehot("p0", "support"), "p1": onehot("p1", "attack"),
             "p2": onehot("p2", "attack")}
    rep = compute_metrics(preds, golds, "ternary")
    assert rep.accuracy == pytest.approx(2 / 3)
    assert rep.f1 == pytest.approx(
        {"support": 1.0, "attack": 2 / 3, "neutral": 0.0})
    assert rep.macro_f1 == pytest.approx(5 / 9)

    rng = np.random.default_rng(15)
    labels = ("support", "attack", "neutral")
    n = 100_000
    u_golds = {f"p{i}": labels[i % 3] for i in range(n)}
    u_preds = {}
    for i in range(n):
        scores = {l: float(rng.random()) for l in labels}
        top = max(scores, key=scores.get)
        u_preds[f"p{i}"] = PairPrediction(f"p{i}", scores, top, 0.0, True)
    auc = compute_metrics(u_preds, u_golds, "ternary").macro_auc
    assert auc == pytest.approx(0.5, abs=0.02)
