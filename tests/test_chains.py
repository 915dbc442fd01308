import itertools

import numpy as np

import arglogic.infer
from arglogic.chains import INDIRECT_PREFIX, build_indirect, emit_pair_manifest
from arglogic.infer import ground_graph
from arglogic.model import ArgumentGraph, ArgumentPair, connected_components
from arglogic.rules import RuleSetConfig


def graph_of(edges, mode="ternary"):
    g = ArgumentGraph(task_mode=mode)
    for i, (s, c) in enumerate(edges):
        g.add_pair(ArgumentPair(f"p{i}", s, c))
    return g


def test_single_chain():
    g, triples = build_indirect(graph_of([("Y", "X"), ("X", "R")]))
    ind = g.indirect_pairs()
    assert len(ind) == 1 and len(triples) == 1
    assert (ind[0].statement_id, ind[0].claim_id) == ("Y", "R")
    assert ind[0].gold is None


def test_disjoint_no_chains():
    g, triples = build_indirect(graph_of([("A", "B"), ("C", "D")]))
    assert not g.indirect_pairs() and not triples


def test_path_of_three_only_adjacent_hops():
    g, triples = build_indirect(graph_of([("D", "C"), ("C", "B"), ("B", "A")]))
    got = {(p.statement_id, p.claim_id) for p in g.indirect_pairs()}
    # brute-force enumeration of 2-hop chains on the toy path
    edges = {("D", "C"), ("C", "B"), ("B", "A")}
    expected = {(s, c2) for (s, c), (s2, c2) in itertools.product(edges, edges)
                if c == s2 and s != c2}
    assert got == expected == {("D", "B"), ("C", "A")}
    assert len(triples) == 2


def test_self_loop_chain_skipped(caplog):
    with caplog.at_level("WARNING"):
        g, triples = build_indirect(graph_of([("A", "B"), ("B", "A")]))
    assert not g.indirect_pairs()
    assert "self-loop" in caplog.text


def test_idempotent():
    g, t1 = build_indirect(graph_of([("Y", "X"), ("X", "R")]))
    before = dict(g.pairs)
    g, t2 = build_indirect(g)
    assert g.pairs == before
    assert t1 == t2


def test_chain_count_matches_brute_force_on_random_trees():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 200))
        parents = {i: int(rng.integers(0, i)) for i in range(1, n)}
        edges = [(f"n{c}", f"n{p}") for c, p in parents.items()]
        g, triples = build_indirect(graph_of(edges))
        edge_set = set(edges)
        expected = {(s, c2) for (s, c) in edge_set for (s2, c2) in edge_set
                    if c == s2 and s != c2}
        assert {(p.statement_id, p.claim_id) for p in g.indirect_pairs()} == expected
        assert len(triples) == sum(
            1 for (s, c) in edge_set for (s2, c2) in edge_set
            if c == s2 and s != c2)


def test_triples_land_in_one_component():
    g, triples = build_indirect(graph_of([("Y", "X"), ("X", "R"), ("Q", "Z")]))
    comps = connected_components(g)
    by_pair = {p.pair_id: i for i, comp in enumerate(comps) for p in comp}
    for t in triples:
        assert by_pair[t.outer_pair] == by_pair[t.first_hop] == by_pair[t.second_hop]


def scanned_component_triples(components, triples):
    """Reference: each component's triples as a scan of its pairs, in
    pair-id order, first meets them through a pair -> triples index."""
    by_pair = {}
    for t in triples:
        for pid in (t.outer_pair, t.first_hop, t.second_hop):
            by_pair.setdefault(pid, []).append(t)
    result = []
    for pairs in components:
        seen, comp_triples = set(), []
        for p in pairs:
            for t in by_pair.get(p.pair_id, ()):
                if t not in seen:
                    seen.add(t)
                    comp_triples.append(t)
        result.append(comp_triples)
    return result


def test_ground_graph_passes_triples_in_scan_order(monkeypatch):
    grounded = []

    def recording_ground(rules, components, evidence, triples, **kwargs):
        grounded.append(list(triples))
        return real_ground(rules, components, evidence, triples, **kwargs)

    real_ground = arglogic.infer.ground
    monkeypatch.setattr(arglogic.infer, "ground", recording_ground)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        edges = set()
        for topic in range(int(rng.integers(1, 4))):
            n = int(rng.integers(3, 12))
            edges |= {(f"t{topic}n{c}", f"t{topic}n{rng.integers(0, c)}") for c in range(1, n)}
            edges |= {(f"t{topic}n{u}", f"t{topic}n{v}")
                      for u, v in rng.integers(0, n, size=(3, 2)) if u != v}
        # pair ids on both sides of the indirect pairs' prefix
        prefixes = rng.choice(["a", "i", "j", "z"], size=len(edges))
        graph = ArgumentGraph()
        for i, ((s, c), prefix) in enumerate(zip(sorted(edges), prefixes)):
            graph.add_pair(ArgumentPair(f"{prefix}{i}", s, c))
        _, triples = build_indirect(ArgumentGraph(graph.task_mode, dict(graph.pairs)))
        assert triples
        grounded.clear()
        grounding = ground_graph(graph, {}, RuleSetConfig(chains=True))
        programs = list(grounding.programs)
        components = connected_components(grounding.work)
        assert len(programs) == len(grounded)
        # each batch's triples: its components', each in scan order
        scanned = scanned_component_triples(components, triples)
        ends = np.cumsum([0] + [p.n_components for p in programs]).tolist()
        assert ends[-1] == len(components)
        assert grounded == [[t for comp in scanned[a:b] for t in comp]
                            for a, b in zip(ends, ends[1:])]
        ids = sorted(grounding.work.pairs)
        assert ids[0] < INDIRECT_PREFIX < ids[-1]


def test_manifest_lists_unscored_pairs():
    g, _ = build_indirect(graph_of([("Y", "X"), ("X", "R")]))
    bundles = {"p0": object(), "p1": object()}
    manifest = emit_pair_manifest(g, bundles)
    assert len(manifest) == 1
    assert manifest[0]["kind"] == "indirect"

    all_scored = {pid: object() for pid in g.pairs}
    assert emit_pair_manifest(g, all_scored) == []

    # ordering is deterministic by pair_id
    manifest2 = emit_pair_manifest(g, {})
    assert [m["pair_id"] for m in manifest2] == sorted(g.pairs)
