import numpy as np
import pytest

from arglogic.chains import build_indirect
from arglogic.grounding import ground
from arglogic.model import ArgumentGraph, ArgumentPair
from arglogic.predicates import PredicateVector
from arglogic.rules import RuleSetConfig, build_ruleset

PREDICATE_FIELDS = (
    "fact_entail", "fact_contradict", "fact_conflict",
    "senti_conflict", "senti_coherent",
    "cause_sc", "obstruct_sc", "cause_cs", "obstruct_cs",
    "backing_conseq", "refuting_conseq", "backing_norm", "refuting_norm",
)


def random_ground_program(seed):
    """Seeded random ground program with at most 3 pairs; mixes task
    modes, hinge powers, chain structures, and partial predicate cover."""
    rng = np.random.default_rng(seed)
    mode = ("ternary", "binary")[rng.integers(2)]
    power_name = ("linear", "squared")[rng.integers(2)]
    n_pairs = int(rng.integers(1, 4))
    graph = ArgumentGraph(task_mode=mode)
    triples = []
    if n_pairs == 3 and rng.random() < 0.7:
        graph.add_pair(ArgumentPair("a", "S", "I"))
        graph.add_pair(ArgumentPair("b", "I", "C"))
        graph, triples = build_indirect(graph)
    else:
        for i in range(n_pairs):
            graph.add_pair(ArgumentPair(f"p{i}", f"s{i}", f"c{i}"))
    vectors = {}
    for pair in graph:
        kwargs = {f: float(rng.random()) for f in PREDICATE_FIELDS
                  if rng.random() < 0.5}
        vectors[pair.pair_id] = PredicateVector(**kwargs)
    config = RuleSetConfig(
        task_mode=mode, chains=bool(triples), hinge_power=power_name,
        w_chain=float(rng.choice([1.0, 0.5, 0.1])),
        w_prior=float(rng.choice([0.2, 0.3])))
    rules = build_ruleset(config)
    return ground(rules, list(graph), vectors, triples,
                  power=config.power, task_mode=mode)


def blocks(prog):
    """Atom indices per pair of a ground program, one row per block."""
    return np.arange(prog.n_atoms).reshape(prog.n_pairs, len(prog.labels))


def index_of(prog, pair_id, relation):
    """The atom of one pair's relation in a ground program."""
    return prog.block_pair_ids.index(pair_id) * len(prog.labels) + prog.labels.index(relation)


@pytest.fixture
def toy_graph():
    g = ArgumentGraph(task_mode="ternary")
    g.add_pair(ArgumentPair("p1", "s1", "c1", gold="support", split="test"))
    g.add_pair(ArgumentPair("p2", "s2", "c1", gold="attack", split="test"))
    g.add_pair(ArgumentPair("p3", "s3", "c3", gold="neutral", split="test"))
    return g
