import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arglogic.infer import ground_graph
from arglogic.model import (
    CausalScores,
    NliScores,
    NormativeScores,
    ScoreBundle,
    SentiDist,
    SentiPairScores,
    SlotScore,
    TuplePairScores,
)
from arglogic.predicates import (
    ABSENT,
    MECHANISMS,
    PREDICATE_NAMES,
    PredicateVector,
    eval_causal,
    eval_fact,
    eval_fact_conflict,
    eval_normative,
    eval_sentiment,
    evaluate_all,
)
from arglogic.rules import LOGIC_RULES, RuleSetConfig
from arglogic.synth import SynthConfig, generate
from reference import present

probs = st.floats(0.0, 1.0)


def test_eval_fact_passthrough():
    assert eval_fact(NliScores(0.7, 0.2, 0.1)) == (0.7, 0.2)
    assert eval_fact(NliScores(1, 0, 0)) == (1, 0)
    assert eval_fact(NliScores(0, 0, 1)) == (0, 0)


def test_fact_conflict_examples():
    tp = TuplePairScores((SlotScore(0.9, 0.05), SlotScore(0.1, 0.8),
                          SlotScore(0.7, 0.1)))
    assert eval_fact_conflict((tp,)) == pytest.approx(0.504, abs=1e-12)
    single = TuplePairScores((SlotScore(0.3, 0.6),))
    assert eval_fact_conflict((single,)) == pytest.approx(0.6)
    assert eval_fact_conflict(()) == 0.0


def test_sentiment_examples():
    pure = SentiPairScores(1.0, SentiDist(1, 0, 0), SentiDist(0, 1, 0))
    assert eval_sentiment((pure,)) == (1.0, 0.0)
    mixed = SentiPairScores(0.5, SentiDist(0.6, 0.2, 0.2),
                            SentiDist(0.7, 0.1, 0.2))
    conflict, coherent = eval_sentiment((mixed,))
    assert conflict == pytest.approx(0.10, abs=1e-12)
    assert coherent == pytest.approx(0.22, abs=1e-12)
    assert eval_sentiment(()) == (0.0, 0.0)


def test_causal_passthrough():
    assert eval_causal(CausalScores(0.8, 0.1, 0.05, 0.02)) == (0.8, 0.1, 0.05, 0.02)
    assert eval_causal(CausalScores(0, 0, 0, 0)) == (0, 0, 0, 0)
    assert eval_causal(CausalScores(0, 0, 0.9, 0))[2] == 0.9


def test_normative_examples():
    pure = NormativeScores(1, 0, 1, 0, 0, 0, 1, 0)
    assert eval_normative(pure) == (1, 0, 0, 0)
    n = NormativeScores(0, 0.9, 0, 0, 0.8, 0.2, 0.5, 0.3)
    bc, rc, bn, rn = eval_normative(n)
    assert bn == pytest.approx(0.414, abs=1e-12)
    assert rn == pytest.approx(0.306, abs=1e-12)
    assert (bc, rc) == (0, 0)
    zero = NormativeScores(0, 0, 0, 0, 0, 0, 0, 0)
    assert eval_normative(zero) == (0, 0, 0, 0)


def test_evaluate_all_partial_and_full():
    only_nli = ScoreBundle("p", nli=NliScores(0.6, 0.3, 0.1))
    vec = evaluate_all(only_nli)
    assert set(present(vec)) == {"fact_entail", "fact_contradict"}

    full = ScoreBundle(
        "p",
        nli=NliScores(0.6, 0.3, 0.1),
        fact_pairs=(TuplePairScores((SlotScore(0.5, 0.5),)),),
        senti_pairs=(SentiPairScores(1.0, SentiDist(1, 0, 0), SentiDist(1, 0, 0)),),
        causal=CausalScores(0.1, 0.2, 0.3, 0.4),
        normative=NormativeScores(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5),
    )
    assert len(present(evaluate_all(full))) == 13
    assert present(evaluate_all(ScoreBundle("p"))) == {}


def test_absent_values_are_nan_in_a_row_of_13_floats():
    vec = evaluate_all(ScoreBundle("p", nli=NliScores(0.6, 0.3, 0.1)))
    assert isinstance(vec, tuple) and len(vec) == len(PREDICATE_NAMES) == 13
    assert vec[:2] == (0.6, 0.3)
    assert all(v is ABSENT for v in vec[2:])
    assert vec == PredicateVector(fact_entail=0.6, fact_contradict=0.3)
    assert present(PredicateVector()) == {}


def test_ablation_forces_absence():
    bundle = ScoreBundle("p", nli=NliScores(0.6, 0.3, 0.1),
                         causal=CausalScores(0.1, 0.2, 0.3, 0.4))
    vec = evaluate_all(bundle, ablate=frozenset({"fact"}))
    assert set(present(vec)) == {"cause_sc", "obstruct_sc", "cause_cs",
                                  "obstruct_cs"}


def brute_force_conflict(fact_pairs):
    best = 0.0
    for tp in fact_pairs:
        n = len(tp.slots)
        for k in range(n):
            prod = tp.slots[k].p_con
            for k2 in range(n):
                if k2 != k:
                    prod *= tp.slots[k2].p_ent
            best = max(best, prod)
    return best


slot = st.builds(SlotScore, probs, probs)
tuple_pair = st.builds(lambda s: TuplePairScores(tuple(s)),
                       st.lists(slot, min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(st.lists(tuple_pair, max_size=3))
def test_fact_conflict_matches_enumeration(pairs):
    assert eval_fact_conflict(tuple(pairs)) == pytest.approx(
        brute_force_conflict(pairs), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(tuple_pair, tuple_pair)
def test_fact_conflict_monotone_in_superset(a, b):
    assert eval_fact_conflict((a, b)) >= eval_fact_conflict((a,))


def random_bundle(rng):
    def dist():
        d = rng.dirichlet([1, 1, 1])
        return float(d[0]), float(d[1]), float(d[2])

    def halfpair():
        a = rng.random()
        b = rng.random() * (1 - a)
        return a, b

    q = halfpair()
    adv = halfpair()
    rc = halfpair()
    return ScoreBundle(
        "p",
        nli=NliScores(*dist()),
        fact_pairs=(TuplePairScores(tuple(
            SlotScore(rng.random(), rng.random())
            for _ in range(rng.integers(1, 4)))),),
        senti_pairs=(SentiPairScores(rng.random(), SentiDist(*dist()),
                                     SentiDist(*dist())),),
        causal=CausalScores(rng.random(), rng.random(), rng.random(), rng.random()),
        normative=NormativeScores(rng.random(), rng.random(), q[0], q[1],
                                  adv[0], adv[1], rc[0], rc[1]),
    )


def test_bounds_and_sum_identities_on_random_bundles():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        bundle = random_bundle(rng)
        vec = evaluate_all(bundle)
        values = present(vec)
        assert len(values) == 13
        for name, v in values.items():
            assert -1e-12 <= v <= 1 + 1e-12, name
        n = bundle.normative
        assert vec.backing_conseq + vec.refuting_conseq == pytest.approx(
            n.p_conseq * (n.q_pos + n.q_neg) * (n.r_consist + n.r_contra), abs=1e-9)
        assert vec.backing_norm + vec.refuting_norm == pytest.approx(
            n.p_norm * (n.p_adv + n.p_opp) * (n.r_consist + n.r_contra), abs=1e-9)


@pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
def test_ablated_mechanism_grounds_none_of_its_rules(mechanism):
    graph, bundles, _ = generate(SynthConfig(seed=1))
    rules = {rid for rid, (pred, _) in LOGIC_RULES.items() if pred in MECHANISMS[mechanism]}

    def grounded(ablate):
        grounding = ground_graph(graph, bundles, RuleSetConfig(chains=True), ablate=ablate)
        return {rid for program in grounding.programs for rid in program.potentials}

    assert rules <= grounded(frozenset())
    assert not rules & grounded(frozenset({mechanism}))
