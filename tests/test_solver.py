import tracemalloc
from dataclasses import fields, replace
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arglogic.grounding import (
    GroundProgram,
    copy_counts,
    energy,
    energy_by_pair,
    evidence,
    ground,
    join,
)
from arglogic import infer, kernels, solver
from arglogic.kernels import project_rows
from arglogic.chains import build_indirect
from arglogic.infer import ground_graph, run_inference, solve_configs
from arglogic.model import (ArgumentGraph, ArgumentPair, ValidationError, connected_components,
                            labels_for_mode)
from arglogic.predicates import ABSENT, PREDICATE_NAMES, PredicateVector, evaluate_all
from arglogic.rules import LOGIC_RULES, MAX_WEIGHT, RuleSetConfig, build_ruleset, expand_grid
from arglogic.solver import _predict_labels, solve_map_admm, split_rows
from arglogic.synth import SynthConfig, generate
from conftest import blocks, ground_pairs, index_of, random_ground_program
from reference import (present, project_rows_by_sort, project_simplex, simplex_grid,
                       solve_map_grid)


def single_pair_program(vector, mode="ternary", w_prior=0.2, chains=False,
                        power=1):
    g = ArgumentGraph(task_mode=mode)
    g.add_pair(ArgumentPair("p1", "s", "c"))
    cfg = RuleSetConfig(task_mode=mode, w_prior=w_prior, chains=chains,
                        hinge_power="linear" if power == 1 else "squared")
    return ground_pairs(build_ruleset(cfg), list(g), {"p1": vector},
                        power=power, task_mode=mode)


def test_grounding_counts():
    prog = single_pair_program(PredicateVector(
        fact_entail=.5, fact_contradict=.5, fact_conflict=.5, senti_conflict=.5,
        senti_coherent=.5, cause_sc=.5, obstruct_sc=.5, cause_cs=.5,
        obstruct_cs=.5, backing_conseq=.5, refuting_conseq=.5,
        backing_norm=.5, refuting_norm=.5))
    assert len(prog.potentials) == 14  # 13 logic + prior
    assert blocks(prog).shape == (1, 3)

    nli_only = single_pair_program(PredicateVector(fact_entail=.5,
                                                   fact_contradict=.3))
    assert sorted(nli_only.potentials) == ["C1", "R1", "R2"]


def test_grounding_chain_triple():
    g = ArgumentGraph(task_mode="ternary")
    g.add_pair(ArgumentPair("a", "S", "I"))
    g.add_pair(ArgumentPair("b", "I", "C"))
    g, triples = build_indirect(g)
    cfg = RuleSetConfig(chains=True)
    prog = ground_pairs(build_ruleset(cfg), list(g), {}, triples, task_mode="ternary")
    chain_rows = [p for p, rid in enumerate(prog.potentials)
                  if rid in ("R14", "R15", "R16", "R17")]
    assert len(chain_rows) == 4
    touched = set(prog.copy_atom[np.isin(prog.copy_pot, chain_rows)].tolist())
    relations = {prog.labels[i % len(prog.labels)] for i in touched}
    assert relations == {"support", "attack"}
    assert len(touched) == 6
    # a triple's pairs lie in one component
    pairs = sorted(g, key=lambda p: p.pair_id)
    values = evidence(PredicateVector() for _ in pairs)
    with pytest.raises(ValidationError, match="two components"):
        ground(build_ruleset(cfg), [pairs[:1], pairs[1:]], values, triples)


def assert_programs_equal(a: GroundProgram, b: GroundProgram, skip=()):
    for f in fields(GroundProgram):
        if f.name in skip:
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def component_programs(graph, bundles, config):
    """`ground_graph`'s programs with every component a batch of its own:
    a batch cap of 0 cuts before each component, so each is grounded in a
    `ground` call of its own."""
    with mock.patch.object(infer, "MAX_BATCH_COPIES", 0):
        return list(ground_graph(graph, bundles, config).programs)


@pytest.mark.parametrize("power", ["linear", "squared"])
def test_joining_once_equals_reweighting_each_program(power):
    """The batches joined once and re-weighted per config, then joined
    config-major, are the program joined from each component re-weighted
    alone: on the default grid, and with the chain or prior rows weighted 0.
    Its row split, which `solve_map_admm` passes its two solvers, is the
    join of each config's split."""
    graph, bundles, _ = generate(SynthConfig(seed=3, n_topics=4, tree_depth=3, branching=2))
    base = RuleSetConfig(chains=True, hinge_power=power)
    programs = component_programs(graph, bundles, base)
    configs = expand_grid(base, {}) + [replace(base, w_chain=0.0), replace(base, w_prior=0.0)]
    weights = [{rule.id: rule.weight for rule in build_ruleset(c)} for c in configs]
    joined = join(list(ground_graph(graph, bundles, base).programs))
    parts = [joined.with_weights(w) for w in weights]
    once = join(parts)
    assert_programs_equal(once, join([p.with_weights(w) for w in weights for p in programs]))
    n_comps = len(configs) * len(programs)
    assert once.n_components == n_comps
    assert np.array_equal(np.unique(once.block_comp), np.arange(n_comps))
    assert np.all(np.diff(once.block_comp) >= 0)

    split = split_rows(once)
    splits = [split_rows(part) for part in parts]
    assert sum(not s.admm.any() for s in splits) == 1  # the w_chain 0 config
    assert_splits_equal(split, join_splits(splits, len(once.labels)))
    # the kernel's components are the runs of the ADMM blocks' ids: each
    # config's, with the joined program's component ids
    comps = [part.block_comp[s.admm] + offset for offset, part, s
             in zip(range(0, n_comps, len(programs)), parts, splits)]
    assert np.array_equal(once.block_comp[split.admm], np.concatenate(comps))


def join_splits(splits, k):
    """The splits of programs joined end to end, as `grounding.join` joins
    the programs: atoms and rows numbered on from those before them."""
    def shifted(arrays, sizes):
        return np.concatenate([a + off for a, off in zip(arrays, np.cumsum([0] + sizes[:-1]))])

    def joined(rows, n_atoms):
        return (shifted([r[0] for r in rows], n_atoms),
                *(np.concatenate([r[i] for r in rows]) for i in range(1, len(rows[0]))))

    admm_atoms = [k * int(s.admm.sum()) for s in splits]
    hinge = joined([s.hinge for s in splits], admm_atoms)
    return solver.RowSplit(
        np.concatenate([s.admm for s in splits]),
        (hinge[0], shifted([s.hinge[1] for s in splits], [len(s.hinge[3]) for s in splits]),
         *hinge[2:]),
        joined([s.admm_rows for s in splits], admm_atoms),
        joined([s.closed_form_rows for s in splits],
               [k * int((~s.admm).sum()) for s in splits]))


def assert_splits_equal(a, b):
    assert np.array_equal(a.admm, b.admm)
    for name in ("hinge", "admm_rows", "closed_form_rows"):
        for x, y in zip(getattr(a, name), getattr(b, name), strict=True):
            assert x.dtype == y.dtype and np.array_equal(x, y), name


def admm_part(prog, keep=None, keep_row=None):
    """The program's blocks where keep holds and its rows where keep_row
    holds, in the same order; a kept row may touch only kept blocks.  By
    default, its ADMM blocks with every row on their atoms."""
    k = len(prog.labels)
    if keep is None:
        keep = split_rows(prog).admm
    if keep_row is None:
        keep_row = np.zeros(len(prog.pot_const), dtype=bool)
        keep_row[prog.copy_pot[np.repeat(keep, k)[prog.copy_atom]]] = True
    keep_atom = np.repeat(keep, k)
    keep_copy = keep_row[prog.copy_pot]
    return GroundProgram(
        task_mode=prog.task_mode,
        block_pair_ids=[pid for pid, kept in zip(prog.block_pair_ids, keep.tolist()) if kept],
        potentials=tuple(rid for rid, kept in zip(prog.potentials, keep_row.tolist()) if kept),
        pot_block=(np.cumsum(keep) - 1)[prog.pot_block[keep_row]],
        pot_const=prog.pot_const[keep_row],
        pot_weight=prog.pot_weight[keep_row],
        power=prog.power,
        copy_atom=(np.cumsum(keep_atom) - 1)[prog.copy_atom[keep_copy]],
        copy_pot=(np.cumsum(keep_row) - 1)[prog.copy_pot[keep_copy]],
        copy_coef=prog.copy_coef[keep_copy],
        block_comp=prog.block_comp[keep],
    )


@pytest.mark.parametrize("mode", ["ternary", "binary"])
@pytest.mark.parametrize("power", ["linear", "squared"])
@pytest.mark.parametrize("chains", [True, False])
def test_each_row_is_one_run_of_copies(mode, power, chains):
    """copy_pot is a program's only row index: it is non-decreasing and
    takes every row index, so each row's copies are one run, the runs
    follow the rows, and no row is without a copy.  This holds for every
    program the solver sees: grounded, joined, its ADMM blocks, and
    re-weighted with the chain or prior rows weighted 0, which keeps every
    row."""
    fractions = {"fractions": {"support": 0.5, "attack": 0.5}} if mode == "binary" else {}
    graph, bundles, _ = generate(SynthConfig(seed=3, n_topics=4, tree_depth=3, branching=2,
                                             task_mode=mode, **fractions))
    base = RuleSetConfig(task_mode=mode, chains=chains, hinge_power=power)
    grounded = list(ground_graph(graph, bundles, base).programs)
    joined = join(grounded)
    coupled = admm_part(joined)
    assert (coupled.n_pairs > 0) == chains
    zeroed = [joined.with_weights({rule.id: rule.weight for rule in build_ruleset(c)})
              for c in (replace(base, w_chain=0.0), replace(base, w_prior=0.0))]
    assert (zeroed[1].pot_weight == 0).any()
    assert all(len(prog.pot_const) == len(joined.pot_const) for prog in zeroed)
    for prog in grounded + [joined, coupled] + zeroed:
        assert np.all(np.diff(prog.copy_pot) >= 0)
        assert np.array_equal(np.unique(prog.copy_pot), np.arange(len(prog.pot_const)))


@pytest.mark.parametrize("power", ["linear", "squared"])
def test_with_weights_equals_ground_under_the_config(power):
    cfg = SynthConfig(n_topics=3, tree_depth=3, branching=2, seed=4)
    graph, bundles, _ = generate(cfg)
    graph, triples = build_indirect(graph)
    assert triples
    vectors = {pid: evaluate_all(b) for pid, b in bundles.items()}
    base = RuleSetConfig(chains=True, hinge_power=power)

    def ground_under(config):
        return ground_pairs(build_ruleset(config), list(graph), vectors, triples,
                            power=config.power, task_mode=config.task_mode)

    grounded = ground_under(base)
    for w_chain, w_prior in product((0.0, 0.1, 1.0), (0.0, 0.3)):
        config = replace(base, w_chain=w_chain, w_prior=w_prior)
        reweighted = grounded.with_weights(
            {rule.id: rule.weight for rule in build_ruleset(config)})
        assert_programs_equal(reweighted, ground_under(config))
        # a weight 0 drops no row: every array but pot_weight is shared
        assert reweighted.copy_atom is grounded.copy_atom
        assert all(getattr(reweighted, f.name) is getattr(grounded, f.name)
                   for f in fields(GroundProgram) if f.name != "pot_weight")


@pytest.mark.parametrize("seed", range(8))
def test_rows_of_weight_0_reach_neither_solver(seed, monkeypatch):
    """A row of weight 0 is grounded, weighs nothing, and the solver skips
    it: under random configs with zero logic, chain and prior weights,
    each batch program's row split, its ADMM penalties, every array the
    kernel gets and the MAP values are those of the same program with its
    weight-0 rows cut out."""
    rng = np.random.default_rng(seed)
    mode = ("ternary", "binary")[seed % 2]
    fractions = {"fractions": {"support": 0.5, "attack": 0.5}} if mode == "binary" else {}
    graph, bundles, _ = generate(SynthConfig(seed=seed, n_topics=4, tree_depth=3, branching=2,
                                             task_mode=mode, **fractions))
    config = RuleSetConfig(
        task_mode=mode, chains=True, hinge_power=("linear", "squared")[seed // 2 % 2],
        prior_on_indirect=bool(rng.integers(2)),
        w_logic={rid: float(rng.choice([0.0, 0.5, 1.0])) for rid in LOGIC_RULES},
        w_chain=float(rng.choice([0.0, 1.0])), w_prior=float(rng.choice([0.0, 0.2])))
    kernel_calls = []
    solve_admm = kernels.solve_admm
    monkeypatch.setattr(kernels, "solve_admm",
                        lambda *a: kernel_calls.append(a) or solve_admm(*a))
    zeros = calls = 0
    for prog in ground_graph(graph, bundles, config).programs:
        live = prog.pot_weight > 0
        zeros += int((~live).sum())
        cut = admm_part(prog, np.ones(prog.n_pairs, dtype=bool), live)
        for admm_all in (False, True):
            split = split_rows(prog, admm_all)
            assert_splits_equal(split, split_rows(cut, admm_all))
            assert np.array_equal(solver.penalties(prog, split.admm),
                                  solver.penalties(cut, split.admm))
        kernel_calls.clear()
        a, b = solve_map_admm(prog), solve_map_admm(cut)
        assert len(kernel_calls) in (0, 2)
        calls += len(kernel_calls)
        for x, y in zip(*kernel_calls, strict=True):
            for u, v in zip(*((x, y) if isinstance(x, tuple) else ((x,), (y,))), strict=True):
                assert np.array_equal(u, v) and np.asarray(u).dtype == np.asarray(v).dtype
        assert np.array_equal(a.values, b.values)
        assert a.predicted == b.predicted
        assert np.array_equal(a.component_iterations, b.component_iterations)
        assert np.array_equal(a.closed_form, b.closed_form)
        assert np.array_equal(a.row_energy[live], b.row_energy)
        assert not a.row_energy[~live].any()
    assert zeros
    assert bool(calls) == bool(config.w_chain)  # a chain row of weight 0 couples no block


def ground_per_pair(rules, pairs, vectors, triples, power, prior_on_indirect, task_mode):
    """`ground` as a per-pair loop: each pair's present values read back
    with one dict.get per logic rule, then its prior; then per triple, one
    row per chain rule."""
    labels = labels_for_mode(task_mode)
    k = len(labels)
    pair_list = sorted(pairs, key=lambda p: p.pair_id)
    block_of = {p.pair_id: b for b, p in enumerate(pair_list)}
    logic = [r for r in rules if r.id.startswith("R") and len(r.body) == 1]
    prior = next(r for r in rules if r.id == "C1")
    chain = [r for r in rules if r.id.startswith("R") and len(r.body) == 2]
    rows = []  # (rule, block, constant, [(atom, coefficient), ...])
    for b, pair in enumerate(pair_list):
        vector = vectors.get(pair.pair_id)
        values = present(vector) if vector is not None else {}
        for r in logic:
            value = values.get(r.body[0])
            if value is not None:
                rows.append((r, b, value, [(b * k + labels.index(r.head), -1.0)]))
        if pair.kind != "indirect" or prior_on_indirect:
            rows.append((prior, b, 1.0, [(b * k + labels.index(prior.head), -1.0)]))
    for t in triples:
        hops = (block_of[t.first_hop], block_of[t.second_hop], block_of[t.outer_pair])
        for r in chain:
            rels = (r.body[0], r.body[1], r.head)
            rows.append((r, hops[2], -1.0, [(h * k + labels.index(rel), coef) for h, rel, coef
                                             in zip(hops, rels, (1.0, 1.0, -1.0))]))
    sizes = np.array([len(copies) for *_, copies in rows], dtype=np.int64)
    copies = [c for *_, row_copies in rows for c in row_copies]
    return GroundProgram(
        task_mode=task_mode,
        block_pair_ids=[p.pair_id for p in pair_list],
        potentials=tuple(r.id for r, *_ in rows),
        pot_block=np.array([b for _, b, _, _ in rows], dtype=np.int64),
        pot_const=np.array([c for _, _, c, _ in rows], dtype=float),
        pot_weight=np.array([r.weight for r, *_ in rows], dtype=float),
        power=power,
        copy_atom=np.array([a for a, _ in copies], dtype=np.int64),
        copy_pot=np.repeat(np.arange(len(rows), dtype=np.int64), sizes),
        copy_coef=np.array([c for _, c in copies], dtype=float),
        block_comp=np.zeros(len(pair_list), dtype=np.int64),
    )


@pytest.mark.parametrize("mode", ["ternary", "binary"])
@pytest.mark.parametrize("prior_on_indirect", [True, False])
def test_ground_from_rows_equals_per_pair_reference(mode, prior_on_indirect):
    rng = np.random.default_rng(7)
    graph = ArgumentGraph(task_mode=mode)
    for pid, s, c in (("a", "A", "B"), ("b", "B", "C"), ("c", "C", "D"), ("e", "E", "B")):
        graph.add_pair(ArgumentPair(pid, s, c))
    graph, triples = build_indirect(graph)
    assert triples and any(p.kind == "indirect" for p in graph)
    for _ in range(40):
        vectors = {}
        for pair in graph:
            if rng.random() < 0.2:
                continue  # a pair with no evidence at all
            values = [float(rng.random()) if rng.random() < 0.6 else ABSENT
                      for _ in PREDICATE_NAMES]
            vectors[pair.pair_id] = PredicateVector(*values)
        config = RuleSetConfig(
            task_mode=mode, chains=True, prior_on_indirect=prior_on_indirect,
            w_logic={rid: float(rng.choice([0.0, 0.5, 1.0])) for rid in LOGIC_RULES},
            w_chain=float(rng.choice([0.0, 1.0])), w_prior=float(rng.choice([0.0, 0.2])),
            hinge_power=("linear", "squared")[rng.integers(2)])
        args = (build_ruleset(config), list(graph), vectors, triples, config.power,
                prior_on_indirect, mode)
        assert_programs_equal(ground_pairs(*args), ground_per_pair(*args))


@pytest.mark.parametrize("mode", ["ternary", "binary"])
@pytest.mark.parametrize("power", ["linear", "squared"])
@pytest.mark.parametrize("chains", [True, False])
@pytest.mark.parametrize("variant", ["defaults", "no prior on indirect", "ablated",
                                     "zero-weight rule"])
def test_a_batch_grounds_as_its_components_joined(mode, power, chains, variant):
    """`ground` on several components is the `join` of grounding each alone,
    and `copy_counts` counts each component's copies without grounding.
    Two pairs have no score bundle."""
    fractions = {"fractions": {"support": 0.5, "attack": 0.5}} if mode == "binary" else {}
    graph, bundles, _ = generate(SynthConfig(seed=5, n_topics=5, tree_depth=3, branching=2,
                                             task_mode=mode, **fractions))
    unscored = sorted(bundles)[::7][:2]
    for pid in unscored:
        del bundles[pid]
    config = RuleSetConfig(task_mode=mode, chains=chains, hinge_power=power,
                           prior_on_indirect=variant != "no prior on indirect",
                           w_logic={"R1": 0.0} if variant == "zero-weight rule" else {})
    ablate = frozenset({"sentiment"}) if variant == "ablated" else frozenset()
    triples = []
    if chains:
        graph, triples = build_indirect(graph)
        assert triples
    components = connected_components(graph)
    assert len(components) > 1
    pairs = [p for comp in components for p in comp]
    values = evidence(evaluate_all(bundles[p.pair_id], ablate=ablate) if p.pair_id in bundles
                      else PredicateVector() for p in pairs)
    assert all(np.isnan(row).all() for p, row in zip(pairs, values) if p.pair_id in unscored)
    component_of = {p.pair_id: c for c, comp in enumerate(components) for p in comp}
    by_component = [[t for t in triples if component_of[t.outer_pair] == c]
                    for c in range(len(components))]
    rules = build_ruleset(config)
    options = dict(power=config.power, prior_on_indirect=config.prior_on_indirect,
                   task_mode=mode)
    starts = np.cumsum([0] + [len(comp) for comp in components])
    alone = [ground(rules, [comp], values[a:b], comp_triples, **options)
             for comp, a, b, comp_triples in zip(components, starts, starts[1:], by_component)]
    batch = ground(rules, components, values, [t for ts in by_component for t in ts], **options)
    assert_programs_equal(batch, join(alone))
    counts = copy_counts(rules, components, values, [len(ts) for ts in by_component],
                         config.prior_on_indirect, mode)
    assert counts.tolist() == [len(p.copy_atom) + p.n_atoms for p in alone]


def test_energy_examples():
    prog = single_pair_program(PredicateVector(fact_entail=1.0))
    sat = np.array([1.0, 0.0, 0.0])
    # R1 satisfied, prior d = 1 at neutral 0 -> energy 0.2
    assert energy(prog, sat).tolist() == pytest.approx([0.0, 0.2])
    infeasible = np.array([1.0, 0.5, 0.0])
    with pytest.raises(ValidationError):
        energy(prog, infeasible)


def test_energy_weighted_sum():
    # two hand-built potentials over support, w=2 d=0.5 and w=1 d=0.25 at
    # support=0.5
    prog = GroundProgram(
        task_mode="binary", block_pair_ids=["p"], potentials=("R1", "R1"),
        pot_block=np.zeros(2, dtype=np.int64),
        pot_const=np.array([1.0, 0.75]),
        pot_weight=np.array([2.0, 1.0]), power=1,
        copy_atom=np.array([0, 0]), copy_pot=np.array([0, 1]),
        copy_coef=np.array([-1.0, -1.0]), block_comp=np.zeros(1, dtype=np.int64))
    rows = energy(prog, np.array([0.5, 0.5]))
    assert rows.tolist() == pytest.approx([1.0, 0.25])
    assert energy_by_pair(prog, rows).tolist() == [1.0]


def test_energy_matches_per_potential_loop():
    rng = np.random.default_rng(3)
    for seed in range(20):
        prog = random_ground_program(seed)
        values = rng.dirichlet(np.ones(len(prog.labels)), prog.n_pairs).ravel()
        per_pair = dict.fromkeys(prog.block_pair_ids, 0.0)
        for p in range(len(prog.potentials)):
            copies = np.flatnonzero(prog.copy_pot == p)
            s = prog.pot_const[p] + sum(prog.copy_coef[c] * values[prog.copy_atom[c]]
                                        for c in copies)
            per_pair[prog.block_pair_ids[prog.pot_block[p]]] += (
                prog.pot_weight[p] * max(0.0, s) ** prog.power)
        total = sum(per_pair.values())
        rows = energy(prog, values)
        assert rows.sum() == pytest.approx(total, rel=1e-12, abs=1e-15)
        shares = dict(zip(prog.block_pair_ids, energy_by_pair(prog, rows)))
        for pid, e in per_pair.items():
            assert shares[pid] == pytest.approx(e / total, rel=1e-12, abs=1e-15)


def test_label_ties_go_to_the_most_conservative_relation():
    g = ArgumentGraph(task_mode="ternary")
    for pid in ("a", "b", "c"):
        g.add_pair(ArgumentPair(pid, "s" + pid, "c" + pid))
    prog = ground_pairs(build_ruleset(RuleSetConfig()), list(g), {})
    # support/attack/neutral per pair: all tied, attack~support, clear support
    values = np.array([1 / 3, 1 / 3, 1 / 3, 0.5, 0.5 - 1e-10, 0.0, 0.6, 0.4, 0.0])
    assert prog.block_pair_ids == ["a", "b", "c"]
    assert _predict_labels(prog, values) == ["neutral", "attack", "support"]


def test_project_simplex_examples():
    assert project_simplex([0.5, 0.5, 0.5]) == pytest.approx([1 / 3] * 3)
    assert project_simplex([2, 0, 0]) == pytest.approx([1, 0, 0])
    assert project_simplex([0.6, 0.3, 0.1]) == pytest.approx([0.6, 0.3, 0.1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=5))
def test_project_simplex_properties(v):
    p = project_simplex(v)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert (p >= -1e-12).all()
    # projection is the closest feasible point: compare against grid points
    for q in simplex_grid(len(v), 0.25):
        assert np.linalg.norm(p - v) <= np.linalg.norm(q - v) + 1e-9


def test_admm_prior_only():
    prog = single_pair_program(PredicateVector(), w_prior=0.3)
    a = solve_map_admm(prog)
    assert a.labels["p1"] == "neutral"
    assert a.values[index_of(prog, "p1", "neutral")] == pytest.approx(1.0, abs=1e-4)
    assert a.energy == pytest.approx(0.0, abs=1e-6)


def test_admm_forced_vertex():
    prog = single_pair_program(PredicateVector(fact_entail=1.0), w_prior=0.2)
    a = solve_map_admm(prog)
    assert a.labels["p1"] == "support"
    assert a.energy == pytest.approx(0.2, abs=1e-6)
    g = solve_map_grid(prog)
    assert g.labels["p1"] == "support"
    assert g.energy == pytest.approx(0.2, abs=1e-12)


def test_admm_deterministic():
    prog = random_ground_program(123)
    a1 = solve_map_admm(prog)
    a2 = solve_map_admm(prog)
    assert np.array_equal(a1.values, a2.values)
    assert a1.energy == a2.energy
    assert a1.iterations == a2.iterations


SOLVER_EPS = (solver.EPS_ABS, solver.EPS_REL)


def kernel_args(prog, max_iters=solver.MAX_ITERS, delta=0.0, eps=SOLVER_EPS, alpha=solver.ALPHA):
    """`kernels.solve_admm`'s arguments for all of the program's blocks,
    split by the solver, under its ρ per component, the given cap,
    proximal weight per unit of ρ, tolerances and over-relaxation, from the
    centre of each simplex."""
    k = len(prog.labels)
    split = split_rows(prog, admm_all=True)
    rho = solver.penalties(prog, split.admm)
    return (*split.hinge, split.admm_rows, k, prog.power, np.full(prog.n_atoms, 1.0 / k),
            rho, *eps, max_iters, np.repeat(prog.block_comp, k), delta * rho, alpha)


def run_kernel(prog, max_iters=solver.MAX_ITERS, delta=0.0, eps=SOLVER_EPS, alpha=solver.ALPHA):
    return kernels.solve_admm(*kernel_args(prog, max_iters, delta, eps, alpha))


def test_admm_iterations_golden():
    # pinned counts of plain ADMM (no proximal term, no over-relaxation):
    # the kernel is deterministic, so a change to the grounded arrays or
    # their order moves them
    iterations = [run_kernel(random_ground_program(s), alpha=1.0).iterations for s in range(10)]
    assert iterations == [30, 24, 29, 37, 57, 31, 32, 35, 28, 32]


def test_admm_iterations_golden_regularised():
    # the same programs with the proximal term and over-relaxation at the
    # solver's defaults
    iterations = [run_kernel(random_ground_program(s), delta=solver.DELTA_PER_WEIGHT).iterations
                  for s in range(10)]
    assert iterations == [20, 16, 29, 29, 38, 16, 17, 22, 26, 20]


def test_admm_matches_grid_oracle_sample():
    for seed in range(25):
        prog = random_ground_program(seed)
        a = solve_map_admm(prog)
        g = solve_map_grid(prog, 0.05)
        tol = max(1e-3, 0.05 * prog.total_weight)
        assert abs(a.energy - g.energy) <= tol, seed
        # the grid minimum cannot beat the continuous optimum
        assert g.energy >= a.energy - tol


def test_grid_guard():
    g = ArgumentGraph()
    for i in range(4):
        g.add_pair(ArgumentPair(f"p{i}", f"s{i}", f"c{i}"))
    prog = ground_pairs(build_ruleset(RuleSetConfig()), list(g), {})
    with pytest.raises(ValidationError, match="grid oracle"):
        solve_map_grid(prog)


def test_feasibility_of_returned_assignments():
    for seed in range(20):
        prog = random_ground_program(seed + 1000)
        a = solve_map_admm(prog)
        for block in blocks(prog):
            vals = a.values[list(block)]
            assert vals.sum() == pytest.approx(1.0, abs=1e-6)
            assert (vals >= -1e-6).all()


def test_convexity_witness():
    rng = np.random.default_rng(7)
    for seed in range(10):
        prog = random_ground_program(seed + 50)
        k = len(prog.labels)

        def feasible_point():
            vals = np.empty(prog.n_atoms)
            for block in blocks(prog):
                vals[list(block)] = rng.dirichlet(np.ones(k))
            return vals

        for _ in range(10):
            x, y = feasible_point(), feasible_point()
            mid = (x + y) / 2
            e = [energy(prog, v).sum() for v in (mid, x, y)]
            assert e[0] <= (e[1] + e[2]) / 2 + 1e-9


def test_argmin_invariant_under_weight_scaling():
    for seed in (3, 14):
        prog = random_ground_program(seed)
        scaled = replace(prog, pot_weight=3.5 * prog.pot_weight)
        a = solve_map_grid(prog, 0.1)
        b = solve_map_grid(scaled, 0.1)
        assert np.array_equal(a.values, b.values)
        assert b.energy == pytest.approx(3.5 * a.energy, rel=1e-9, abs=1e-12)


def test_zero_evidence_predicts_default():
    for mode, expected in (("ternary", "neutral"), ("binary", "attack")):
        prog = single_pair_program(PredicateVector(), mode=mode)
        a = solve_map_admm(prog)
        assert a.labels["p1"] == expected


def test_non_convergence_is_reported_not_fatal(monkeypatch):
    prog = random_ground_program(1)  # three pairs coupled by a chain triple
    assert split_rows(prog).admm.all()
    monkeypatch.setattr(solver, "MAX_ITERS", 2)
    a = solve_map_admm(prog)
    assert not a.converged
    assert a.iterations == 2
    for block in blocks(prog):  # still exactly feasible
        assert a.values[list(block)].sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("index", [3, 4], ids=["pot_const", "pot_weight"])
def test_kernel_raises_on_a_nan_hinge_row(index):
    """A NaN constant or weight on one hinge row reaches the iterate in the
    first iteration, and the kernel raises rather than return it."""
    prog = random_ground_program(1)  # three pairs coupled by a chain triple
    args = list(kernel_args(prog))
    assert len(args[index])
    args[index] = args[index].copy()
    args[index][0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="NaN"):
        kernels.solve_admm(*args)


def test_empty_program_solves_to_an_empty_converged_assignment():
    a = solve_map_admm(ground_pairs(build_ruleset(RuleSetConfig()), [], {}))
    assert len(a.values) == 0 and a.pair_ids == [] and a.predicted == []
    assert a.energy == 0.0
    assert a.converged and a.iterations == 0


def programs_of_mode(mode, count):
    """Random one-component programs of one mode, with distinct pair ids."""
    programs = [p for p in map(random_ground_program, range(200))
                if p.task_mode == mode][:count]
    return [replace(p, block_pair_ids=[f"c{i}/{pid}" for pid in p.block_pair_ids])
            for i, p in enumerate(programs)]


@pytest.mark.parametrize("mode", ["ternary", "binary"])
def test_batched_solve_equals_per_component_solve(mode):
    programs = programs_of_mode(mode, 12)
    assert {p.power for p in programs} == {1, 2}
    with pytest.raises(ValidationError, match="hinge powers"):
        join(programs)
    for power in (1, 2):
        same = [p for p in programs if p.power == power]
        alone = [solve_map_admm(p) for p in same]
        for order in (range(len(same)), range(len(same) - 1, -1, -1)):
            solo = [alone[i] for i in order]
            a = solve_map_admm(join([same[i] for i in order]))
            assert np.array_equal(a.values, np.concatenate([s.values for s in solo]))
            assert a.component_iterations.tolist() == [s.iterations for s in solo]
            assert a.component_converged.tolist() == [s.converged for s in solo]
            assert a.iterations == sum(s.iterations for s in solo)
            assert a.labels == {k: v for s in solo for k, v in s.labels.items()}
            assert a.energy_shares == {k: v for s in solo
                                       for k, v in s.energy_shares.items()}


def test_capped_component_does_not_stop_the_batch(monkeypatch):
    # binary, squared hinges, each three pairs coupled by a chain triple
    programs = [random_ground_program(s) for s in (15, 16, 41)]
    assert all(split_rows(p).admm.all() for p in programs)
    iters = [solve_map_admm(p).iterations for p in programs]
    assert iters == [36, 46, 32]
    monkeypatch.setattr(solver, "MAX_ITERS", 44)
    a = solve_map_admm(join(programs))
    assert a.component_converged.tolist() == [True, False, True]
    assert a.component_iterations.tolist() == [36, 44, 32]
    assert not a.converged
    capped = solve_map_admm(programs[1])
    assert not capped.converged
    start = programs[0].n_atoms
    assert np.array_equal(a.values[start:start + programs[1].n_atoms], capped.values)


def assert_same_assignment(a, b):
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, f.name
    assert a.energy == b.energy


@pytest.mark.parametrize("power, per_call", [("linear", 4), ("squared", 4), ("linear", 2)])
def test_config_joined_solve_equals_one_solve_per_config(power, per_call, monkeypatch):
    """A batch is joined under as many configs per kernel call as the cap
    allows (all four, or two at a time), and each config's part of a call
    is what solving its own program alone gives.  A zero chain weight
    leaves the chain rows coupling no block, so that config's blocks are
    solved in closed form while the others' go to ADMM; a zero prior
    weight leaves the prior rows weighing nothing."""
    graph, bundles, _ = generate(SynthConfig(seed=3, n_topics=4, tree_depth=3, branching=2))
    base = RuleSetConfig(chains=True, hinge_power=power)
    configs = [replace(base, w_chain=wc, w_prior=wp)
               for wc, wp in ((1.0, 0.2), (0.0, 0.3), (0.5, 0.0), (0.1, 0.2))]
    components = component_programs(graph, bundles, base)
    monkeypatch.setattr(infer, "MAX_BATCH_COPIES", 600)  # several batches
    monkeypatch.setattr(infer, "MAX_JOINED_COPIES", 600 * per_call)
    grounding = ground_graph(graph, bundles, base)
    grounding.programs = list(grounding.programs)
    kernel_calls = []
    solve_admm = kernels.solve_admm
    monkeypatch.setattr(kernels, "solve_admm",
                        lambda *a: kernel_calls.append(1) or solve_admm(*a))

    joint = list(solve_configs(grounding, configs))
    assert len(joint) == len(grounding.programs) > 1
    # a batch of c copies is joined under MAX_JOINED_COPIES // c configs at a
    # time; one call per group that holds a config with chain rows
    copies = [len(b.copy_atom) + b.n_atoms for b in grounding.programs]
    steps = [max(1, 600 * per_call // c) for c in copies]
    assert max(steps) > 1
    assert len(kernel_calls) == sum(any(c.w_chain for c in configs[i:i + step])
                                    for step in steps for i in range(0, len(configs), step))
    ends = np.cumsum([0] + [b.n_components for b in grounding.programs]).tolist()
    assert ends[-1] == len(components)
    for results, batch, c, first, end in zip(joint, grounding.programs, copies,
                                              ends, ends[1:]):
        assert c <= 600 or batch.n_components == 1
        assert len(results) == len(configs)
        for config, (weight, part) in zip(configs, results):
            weights = {rule.id: rule.weight for rule in build_ruleset(config)}
            alone = [p.with_weights(weights) for p in components[first:end]]
            assert weight == sum(p.total_weight for p in alone)
            assert_same_assignment(part, solve_map_admm(join(alone)))
            assert part.closed_form.all() == (config.w_chain == 0.0)


def test_a_grounding_solves_the_same_twice():
    """`Grounding.programs` grounds the batches anew on each pass, so a
    second run on one grounding gives what the first gave."""
    graph, bundles, _ = generate(SynthConfig(seed=3, n_topics=4, tree_depth=3, branching=2))
    config = RuleSetConfig(chains=True)
    grounding = ground_graph(graph, bundles, config)
    first, second = (run_inference(graph, bundles, config, grounding=grounding)
                     for _ in range(2))
    assert first.predictions and first.predictions == second.predictions
    assert (first.total_energy, first.total_weight, first.n_potentials) == (
        second.total_energy, second.total_weight, second.n_potentials)
    configs = expand_grid(config, {})
    first, second = (list(solve_configs(grounding, configs)) for _ in range(2))
    assert len(first) == len(second) > 0
    for results, again in zip(first, second):
        assert len(results) == len(again) == len(configs)
        for (weight, part), (weight_again, part_again) in zip(results, again):
            assert weight == weight_again
            assert_same_assignment(part, part_again)


@pytest.mark.parametrize("k", [2, 3])
def test_project_rows_matches_sort_reference(k):
    rng = np.random.default_rng(k)
    rows = [rng.normal(0.3, 1.0, (4000, k)),
            rng.integers(-4, 5, (4000, k)) / 4.0,  # many exact ties
            np.repeat(rng.normal(0.0, 2.0, (1000, 1)), k, axis=1),  # all equal
            rng.random((4000, k)) * 1e-9 + 1.0 / k]
    V = np.concatenate(rows)
    assert np.array_equal(project_rows(V), project_rows_by_sort(V))
    # the kernel projects its simplex copies in place
    in_place = V.copy()
    assert project_rows(in_place, out=in_place) is in_place
    assert np.array_equal(in_place, project_rows_by_sort(V))


def synth_chain_batch():
    """The ADMM blocks of every chain-coupled component of a small synth
    dataset, each as `solve_map_admm` passes them on, joined in one batch."""
    graph, bundles, _ = generate(SynthConfig(seed=1, n_topics=6, tree_depth=4, branching=2))
    config = RuleSetConfig(chains=True)
    weights = {rule.id: rule.weight for rule in build_ruleset(config)}
    programs = [p.with_weights(weights) for p in component_programs(graph, bundles, config)]
    coupled = [admm_part(p) for p in programs if split_rows(p).admm.any()]
    return coupled, join(coupled)


def test_synth_chain_batch_golden():
    # pinned, for plain ADMM (no proximal term, no over-relaxation): alone,
    # the components stop at 163, 158, 152, 164, 164 and 158 iterations;
    # the cap stops the fourth and fifth, the first converges at it, and
    # the running components are gathered as they fall to 3/4 of the
    # working set
    components, batch = synth_chain_batch()
    result = run_kernel(batch, max_iters=163, alpha=1.0)
    assert result.component_iterations.tolist() == [163, 158, 152, 163, 163, 158]
    assert result.converged.tolist() == [True, True, True, False, False, True]
    start = 0
    for prog in components:
        alone = run_kernel(prog, max_iters=163, alpha=1.0)
        assert np.array_equal(result.z[start:start + prog.n_atoms], alone.z)
        start += prog.n_atoms


@pytest.mark.parametrize("order", [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0], [3, 0, 5, 1, 4, 2]])
def test_staggered_stops_compact_down_to_one_component(order, monkeypatch):
    """The components of one batch stop at staggered iterations, so the
    working set is gathered several times as the running copies fall to
    3/4 of it, the last time down to the one component that the cap then
    stops; each component ends as it does alone, in every order.  The
    proximal weight 0.12 per unit of ρ spreads the stops (alone, 96, 94,
    95, 101, 91 and 93 iterations); at the solver's 0.1 the last two fall
    one iteration apart."""
    components, _ = synth_chain_batch()
    components = [components[i] for i in order]
    gathers = []  # (components in the working set, components kept)
    select = kernels._Working.select
    monkeypatch.setattr(kernels._Working, "select", lambda w, keep: (
        gathers.append((len(w.comps), int(keep.sum()))), select(w, keep))[1])
    result = run_kernel(join(components), max_iters=98, delta=0.12)
    assert len(gathers) >= 3
    assert gathers[-1][1] == 1
    assert all(kept < held for held, kept in gathers)
    assert [held for held, _ in gathers[1:]] == [kept for _, kept in gathers[:-1]]
    capped = result.component_iterations == 98
    assert capped.sum() == 1 and not result.converged[capped].any()
    start = 0
    for c, prog in enumerate(components):
        alone = run_kernel(prog, max_iters=98, delta=0.12)
        assert np.array_equal(result.z[start:start + prog.n_atoms], alone.z)
        assert result.component_iterations[c] == alone.iterations
        assert result.converged[c] == alone.converged[0]
        start += prog.n_atoms


def peak_bytes_per_copy(call, prog) -> float:
    """The tracemalloc peak of call() above its entry, per working copy of
    prog (hinge copies plus one simplex copy per atom)."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - entry) / (len(prog.copy_atom) + prog.n_atoms)


def kernel_bytes_per_copy(prog) -> float:
    """`peak_bytes_per_copy` of one `kernels.solve_admm` call on prog."""
    args = kernel_args(prog)
    return peak_bytes_per_copy(lambda: kernels.solve_admm(*args), prog)


# The kernel's peak above its entry on the two programs below reads 61.1
# and 62.0 bytes per copy (numpy 2.4.6, CPython 3.11.7, outside pytest),
# now that it takes its rows split and sorted; it read 84.1 and 82.0 while
# it copied and sorted them itself.  The pin was set at 73.5 plus 25% and
# leaves 48% headroom; each copy-sized float array alive at the peak adds
# 8 bytes per copy.
KERNEL_BYTES_PER_COPY = 92


def test_kernel_memory_per_copy():
    _, batch = synth_chain_batch()
    graph, bundles, _ = generate(SynthConfig(seed=1, n_topics=6, tree_depth=4, branching=2))
    base = RuleSetConfig(chains=True)
    joined = join(list(ground_graph(graph, bundles, base).programs))
    six = join([joined.with_weights({rule.id: rule.weight for rule in build_ruleset(config)})
                for config in expand_grid(base, {})])
    six = admm_part(six)
    assert six.n_components == 6 * joined.n_components
    for prog in (batch, six):
        assert kernel_bytes_per_copy(prog) <= KERNEL_BYTES_PER_COPY


# One `solve_map_admm` call on a six-config join, the program a default
# sweep batch passes it, reads 91.7 bytes per copy above its entry (numpy
# 2.4.6, CPython 3.11.7, outside pytest; 91.0 while the kernel split the
# rows itself).  The pin was set at 79.4 plus 25% and leaves 8% headroom.
# The joined program is built before the call and held through it, and
# so are the split rows the kernel reads.
SOLVE_BYTES_PER_COPY = 99


def test_joined_solve_memory_per_copy():
    _, batch = synth_chain_batch()
    six = join([batch.with_weights({rule.id: rule.weight for rule in build_ruleset(config)})
                for config in expand_grid(RuleSetConfig(chains=True), {})])
    assert six.n_components == 6 * batch.n_components
    assert peak_bytes_per_copy(lambda: solve_map_admm(six), six) <= SOLVE_BYTES_PER_COPY


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.floats(0.0, 3.0),
       st.sampled_from([0.0, 1e-3, 1.0]), st.floats(-1e-6, 1e-6),
       st.floats(1e-9, 1e-2), st.floats(1e-9, 0.5))
def test_early_out_never_rules_out_a_passing_primal_test(
        n_atoms, seed, along_z, noise, slack, eps_abs, eps_rel):
    """y sits near the edge of the early-out bound, its step from z̃
    along z̃ (where ‖y‖ = ‖z̃‖ + r, so the bound is tight) plus noise; when
    the bound rules the iteration out, the full primal test fails too."""
    rng = np.random.default_rng(seed)
    copy_atom = np.repeat(np.arange(n_atoms), rng.integers(1, 4, n_atoms))
    z = rng.random(n_atoms)
    z_copy = z[copy_atom]
    step = along_z * z_copy + noise * rng.normal(size=len(copy_atom))
    assume(np.linalg.norm(step) > 0)
    abs_tol = np.sqrt(len(copy_atom)) * eps_abs
    z_norm = np.sqrt(np.sum(np.bincount(copy_atom) * z * z))
    edge = (abs_tol + eps_rel * z_norm) / (1.0 - eps_rel)
    y = z_copy + step / np.linalg.norm(step) * edge * (1.0 + slack)
    r = np.sqrt(np.sum((y - z_copy) ** 2))
    y_norm = np.sqrt(np.sum(y * y))
    if kernels.primal_ruled_out(r, z_norm, abs_tol, eps_rel):
        assert not kernels.primal_passes(r, y_norm, z_norm, abs_tol, eps_rel)


@pytest.mark.parametrize("width", [4, 5])
def test_kernel_rejects_widths_other_than_2_and_3(width):
    with pytest.raises(ValueError, match="width 2 or 3 only"):
        project_rows(np.full((4, width), 0.5))
    # one pair of `width` atoms under one linear hinge row
    with pytest.raises(ValueError, match="width 2 or 3 only"):
        kernels.solve_admm(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                           np.zeros(0), np.zeros(0), np.zeros(0),
                           (np.array([0]), np.array([-1.0]), np.array([0.5]), np.array([1.0])),
                           width, 1, np.full(width, 1.0 / width), np.ones(1), 1e-5, 1e-4, 100,
                           np.zeros(width, dtype=np.int64), np.zeros(1), 1.5)


@pytest.mark.parametrize("power", [1, 2])
def test_kernel_rejects_one_atom_rows_out_of_order(power):
    """The consensus step reads each atom's one-atom rows in ascending
    breakpoint, so the kernel refuses them shuffled, or with two rows of
    one atom swapped."""
    prog = next(p for p in map(random_ground_program, range(200))
                if p.power == power and split_rows(p).admm.all())
    args = kernel_args(prog)
    assert run_kernel(prog).converged.all()
    atom, coef, const, _ = args[5]
    t = const / -coef
    within = np.flatnonzero((atom[1:] == atom[:-1]) & (t[1:] > t[:-1]))
    assert len(within)
    swapped = np.arange(len(atom))
    swapped[[within[0], within[0] + 1]] = swapped[[within[0] + 1, within[0]]]
    for order in (np.random.default_rng(power).permutation(len(atom)), swapped):
        rows = tuple(a[order] for a in args[5])
        with pytest.raises(ValueError, match="ordered by atom, then by breakpoint"):
            kernels.solve_admm(*args[:5], rows, *args[6:])


def fold_working(rows, n_atoms, hinge_rows, power, rho, delta):
    """A working set of one component: one-atom rows (atom, coef, const,
    weight) and two-copy hinge rows (atom, atom), which raise their atoms'
    copy counts.  The rows are ordered as the kernel takes them: by atom,
    then by breakpoint."""
    hinge_atom = np.array([a for pair in hinge_rows for a in sorted(pair)], dtype=np.int64)
    n_hinge = len(hinge_rows)
    rows = sorted(rows, key=lambda r: (r[0], r[2] / -r[1]))
    fold = tuple(np.array([r[i] for r in rows], dtype=dtype)
                 for i, dtype in enumerate((np.int64, float, float, float)))
    return kernels._Working(
        hinge_atom, np.repeat(np.arange(n_hinge), 2), np.ones(2 * n_hinge), np.zeros(n_hinge),
        np.ones(n_hinge), fold, 3, power, np.zeros(n_atoms, dtype=np.int64),
        np.arange(n_atoms), np.arange(1), np.array([rho]), 1e-5, np.array([delta]))


def ternary_search(f, lo=0.0, hi=1.0):
    for _ in range(200):
        a, b = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        lo, hi = (lo, b) if f(a) <= f(b) else (a, hi)
    return (lo + hi) / 2


@pytest.mark.parametrize("power", [1, 2])
def test_fold_prox_is_each_atoms_one_dimensional_minimiser(power):
    """The consensus step with one-atom rows gives each atom the minimiser
    over [0, 1] of ρ/2·D·(z − M)² plus its rows w·max(0, c + a·z)^p, as a
    brute-force search finds it.  Breakpoints tie, some rows are inactive
    (c <= 0 or w = 0), and many atoms share one call; each atom's z is
    bit for bit what it gets with the other atoms' one-atom rows gone."""
    rng = np.random.default_rng(power)
    grid = np.linspace(0.0, 1.0, 2001)
    for _ in range(30):
        n_atoms = 3 * int(rng.integers(1, 5))
        n_rows = int(rng.integers(0, 5 * n_atoms))
        rows = list(zip(rng.integers(0, n_atoms, n_rows).tolist(),
                        (-rng.choice([0.5, 1.0, 2.0], n_rows)).tolist(),
                        rng.choice([-0.3, 0.0, 0.2, 0.4, 0.8, 1.5], n_rows).tolist(),
                        rng.choice([0.0, 0.3, 1.0, 2.5], n_rows).tolist()))
        hinge_rows = [tuple(rng.choice(n_atoms, 2, replace=False))
                      for _ in range(int(rng.integers(0, n_atoms)))]
        rho, delta = float(rng.choice([0.5, 1.0, 3.0])), float(rng.choice([0.0, 0.1]))
        w = fold_working(rows, n_atoms, hinge_rows, power, rho, delta)
        M = rng.uniform(-0.5, 1.5, n_atoms)
        z = M.copy()
        w.fold_prox(z, np.empty(n_rows))
        for a in range(n_atoms):
            mine = [r for r in rows if r[0] == a]

            def f(x):
                return rho / 2 * w.z_den[a] * (x - M[a]) ** 2 + sum(
                    wt * np.maximum(0.0, c + coef * x) ** power for _, coef, c, wt in mine)

            assert abs(z[a] - ternary_search(f)) <= 1e-6
            assert f(z[a]) <= f(grid).min() + 1e-12
            alone = M.copy()
            fold_working(mine, n_atoms, hinge_rows, power, rho, delta).fold_prox(
                alone, np.empty(len(mine)))
            assert alone[a] == z[a]


@pytest.mark.parametrize("power", [1, 2])
def test_kernel_on_one_atom_rows_matches_the_closed_form(power):
    """A program of one-atom rows alone leaves the kernel no hinge copy;
    plain ADMM then reaches the closed form's energy to solver tolerance."""
    for prog in uncoupled_programs(power):
        k = len(prog.labels)
        result = run_kernel(prog)
        assert result.converged.all()
        admm = energy(prog, project_rows(result.z.reshape(-1, k)).ravel()).sum()
        closed_form = solver.solve_uncoupled(split_rows(prog).closed_form_rows, prog.n_pairs,
                                             k, prog.power)
        exact = energy(prog, closed_form.ravel()).sum()
        assert exact - 1e-9 <= admm <= exact + 1e-3 * max(1.0, prog.total_weight)


# ---------------------------------------------------------------------------
# closed form for uncoupled blocks

def uncoupled_program(mode, power, rows, n_pairs=1):
    """A hand-built program of one-copy rows (atom, coefficient, constant,
    weight)."""
    k = 3 if mode == "ternary" else 2
    atoms = np.array([r[0] for r in rows], dtype=np.int64)
    n_rows = len(rows)
    return GroundProgram(
        task_mode=mode, block_pair_ids=[f"p{b}" for b in range(n_pairs)],
        potentials=("R1",) * n_rows,
        pot_block=atoms // k,
        pot_const=np.array([r[2] for r in rows], dtype=float),
        pot_weight=np.array([r[3] for r in rows], dtype=float),
        power=power,
        copy_atom=atoms,
        copy_pot=np.arange(n_rows),
        copy_coef=np.array([r[1] for r in rows], dtype=float),
        block_comp=np.zeros(n_pairs, dtype=np.int64))


def random_uncoupled_program(rng, mode, power, n_pairs=4):
    """Random rows: coefficients in [-2, -0.5], constants on both sides of
    0 and 1, weights in [0, 2]."""
    k = 3 if mode == "ternary" else 2
    n_rows = int(rng.integers(0, 5 * n_pairs))
    rows = zip(np.sort(rng.integers(0, n_pairs * k, n_rows)).tolist(),
               rng.uniform(-2.0, -0.5, n_rows).tolist(),
               rng.uniform(-0.3, 1.5, n_rows).tolist(),
               rng.uniform(0.0, 2.0, n_rows).tolist())
    return uncoupled_program(mode, power, list(rows), n_pairs)


def uncoupled_programs(power):
    """Grounded uncoupled programs among the random ones, and hand-built
    ones, in both task modes."""
    rng = np.random.default_rng(power)
    grounded = [p for p in map(random_ground_program, range(120))
                if p.power == power and not split_rows(p).admm.any()]
    built = [random_uncoupled_program(rng, mode, power)
             for mode in ("ternary", "binary") for _ in range(30)]
    assert {p.task_mode for p in grounded} == {"ternary", "binary"}
    return grounded + built


def lp_energy(prog):
    """Optimum of the linear-hinge MAP as an LP over (x, slacks), x in
    [0, 1] and each block's atoms on the simplex; the matrices are sparse,
    so components of thousands of atoms fit."""
    from scipy import sparse
    from scipy.optimize import linprog

    n, m = prog.n_atoms, len(prog.pot_const)
    hinges = sparse.csr_matrix((prog.copy_coef, (prog.copy_pot, prog.copy_atom)),
                               shape=(m, n))
    a_ub = sparse.hstack([hinges, -sparse.identity(m)], format="csr")
    atoms = blocks(prog)
    a_eq = sparse.csr_matrix(
        (np.ones(n), (np.repeat(np.arange(prog.n_pairs), atoms.shape[1]), atoms.ravel())),
        shape=(prog.n_pairs, n + m))
    res = linprog(np.concatenate([np.zeros(n), prog.pot_weight]),
                  A_ub=a_ub, b_ub=-prog.pot_const, A_eq=a_eq, b_eq=np.ones(prog.n_pairs),
                  bounds=[(0, 1)] * n + [(0, None)] * m, method="highs")
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("seed", [1, 2])
def test_admm_energy_certified_by_lp_on_deep_chain_components(seed):
    """Every coupled component of a deep-chains-sized synth program, with
    linear hinges: ADMM's energy is at least HiGHS's optimum (less 1e-9,
    relative) and at most 1e-3 above it, relative."""
    graph, bundles, _ = generate(SynthConfig(seed=seed, n_topics=8, tree_depth=5,
                                             branching=3))
    config = RuleSetConfig(chains=True)
    weights = {rule.id: rule.weight for rule in build_ruleset(config)}
    programs = [p.with_weights(weights) for p in component_programs(graph, bundles, config)]
    coupled = [p for p in programs if split_rows(p).admm.any()]
    assert coupled
    for prog in coupled:
        optimum = lp_energy(prog)
        assert optimum * (1 - 1e-9) <= solve_map_admm(prog).energy <= optimum * (1 + 1e-3)


def test_labels_do_not_depend_on_rho(monkeypatch):
    """With the proximal term the MAP is unique, so ρ moves no direct label
    of a deep-chains-shaped program (without it, 3 to 6 move per seed): the
    ρ the solver passes the kernel is scaled by c, with δ as it was."""
    config = RuleSetConfig(chains=True)
    solve_admm = kernels.solve_admm
    for seed in range(1, 6):
        graph, bundles, _ = generate(SynthConfig(seed=seed, n_topics=2, tree_depth=3,
                                                 branching=3))
        grounding = ground_graph(graph, bundles, config)

        def labels_at(c):
            monkeypatch.setattr(kernels, "solve_admm",
                                lambda *a: solve_admm(*a[:9], c * a[9], *a[10:]))
            return {pid: p.predicted for pid, p in run_inference(
                graph, bundles, config, grounding=grounding).predictions.items()}

        labels = [labels_at(c) for c in (0.5, 1.0, 2.0, 4.0)]
        assert all(other == labels[1] for other in labels), seed


def test_scaling_every_weight_leaves_the_direct_labels():
    """δ and ρ follow the weights, so weights ×c leave the regularised MAP
    where it was.  With δ fixed at 0.1, ×100 moves 8 to 11 of these labels
    and ×0.01 moves scores by 0.65."""
    def scaled(c):
        """Every weight times c."""
        return RuleSetConfig(chains=True, w_logic=dict.fromkeys(LOGIC_RULES, c),
                             w_chain=c, w_prior=0.2 * c)

    for seed in range(1, 6):
        graph, bundles, _ = generate(SynthConfig(seed=seed, n_topics=2, tree_depth=3,
                                                 branching=3))
        direct = {p.pair_id for p in graph if p.kind == "direct"}
        base, *others = [{pid: p for pid, p in run_inference(
            graph, bundles, scaled(c)).predictions.items()
            if pid in direct} for c in (1.0, 0.01, 100.0)]
        for other in others:
            assert {pid: p.predicted for pid, p in other.items()} == {
                pid: p.predicted for pid, p in base.items()}, seed
            assert max(abs(other[pid].scores[rel] - p.scores[rel])
                       for pid, p in base.items() for rel in p.scores) < 0.01, seed


@pytest.mark.parametrize("scale", [2.0 ** -7, 2.0 ** 10])
def test_solve_is_scale_free(scale):
    """ρ, δ and every stopping threshold scale with the weights, and a
    power of two scales every float exactly, so weights ×2^k leave every
    iterate bit for bit: the same values, iterations and labels."""
    for seed in range(200):
        prog = random_ground_program(seed)
        a = solve_map_admm(prog)
        b = solve_map_admm(replace(prog, pot_weight=scale * prog.pot_weight))
        assert np.array_equal(a.values, b.values), seed
        assert a.component_iterations.tolist() == b.component_iterations.tolist(), seed
        assert a.predicted == b.predicted, seed


@pytest.mark.parametrize("power", ["linear", "squared"])
def test_every_component_converges_at_the_weight_bound(power):
    """Every weight at `rules.MAX_WEIGHT` is legal, and ρ follows the
    weights, so each of the ten coupled components converges; a fixed
    ρ = 1 leaves all ten unconverged at MAX_ITERS."""
    graph, bundles, _ = generate(SynthConfig(seed=1))
    config = RuleSetConfig(chains=True, hinge_power=power,
                           w_logic=dict.fromkeys(LOGIC_RULES, MAX_WEIGHT),
                           w_chain=MAX_WEIGHT, w_prior=MAX_WEIGHT)
    result = run_inference(graph, bundles, config)
    coupled = [(a.component_iterations, a.component_converged) for _, a in result.solved
               if not a.closed_form.all()]
    assert sum(len(i[i > 0]) for i, _ in coupled) == 10
    assert all(converged.all() for _, converged in coupled)
    assert result.converged


def regularised_objective(prog, values, delta):
    """Hinge energy plus the proximal term delta/2·‖x − 1/k‖²."""
    return energy(prog, values).sum() + delta / 2 * np.sum((values - 1 / len(prog.labels)) ** 2)


def slsqp_optimum(prog, delta):
    """The regularised MAP by SLSQP over (x, slacks): each row's slack is at
    least 0 and its hinge value, and each block's atoms lie on the simplex."""
    from scipy.optimize import minimize

    n, m, k = prog.n_atoms, len(prog.pot_const), len(prog.labels)
    hinges = np.zeros((m, n))
    np.add.at(hinges, (prog.copy_pot, prog.copy_atom), prog.copy_coef)
    sums = np.zeros((prog.n_pairs, n))
    sums[np.repeat(np.arange(prog.n_pairs), k), blocks(prog).ravel()] = 1.0
    w, p = prog.pot_weight, prog.power

    def objective(v):
        return w @ v[n:] ** p + delta / 2 * np.sum((v[:n] - 1 / k) ** 2)

    def gradient(v):
        return np.concatenate([delta * (v[:n] - 1 / k), p * w * v[n:] ** (p - 1)])

    constraints = [
        {"type": "ineq", "fun": lambda v: v[n:] - hinges @ v[:n] - prog.pot_const,
         "jac": lambda v: np.hstack([-hinges, np.eye(m)])},
        {"type": "eq", "fun": lambda v: sums @ v[:n] - 1.0,
         "jac": lambda v: np.hstack([sums, np.zeros((prog.n_pairs, m))])}]
    x0 = np.full(n, 1 / k)
    res = minimize(objective, np.concatenate([x0, np.maximum(hinges @ x0 + prog.pot_const, 0)]),
                   jac=gradient, constraints=constraints, method="SLSQP",
                   bounds=[(0, 1)] * n + [(0, None)] * m,
                   options={"ftol": 1e-12, "maxiter": 1000})
    assert res.success, res.message
    return regularised_objective(prog, project_rows(res.x[:n].reshape(-1, k)).ravel(), delta)


@pytest.mark.parametrize("power", [1, 2])
def test_regularised_kernel_matches_slsqp_optimum(power):
    """At a tight tolerance, the kernel's regularised objective on small
    coupled programs is within 1e-6 of SLSQP's optimum, at the solver's
    proximal weight per unit of ρ."""
    programs = [p for p in map(random_ground_program, range(200))
                if p.power == power and split_rows(p).admm.any()][:8]
    assert len(programs) == 8
    for prog in programs:
        k = len(prog.labels)
        args = kernel_args(prog, max_iters=100_000, delta=solver.DELTA_PER_WEIGHT,
                           eps=(1e-10, 1e-10))
        result = kernels.solve_admm(*args)
        assert result.converged.all()
        (delta,) = args[14]  # one component
        values = project_rows(result.z.reshape(-1, k)).ravel()
        assert abs(regularised_objective(prog, values, delta)
                   - slsqp_optimum(prog, delta)) <= 1e-6


def test_closed_form_linear_matches_lp_optimum():
    programs = uncoupled_programs(power=1)
    for prog in programs:
        a = solve_map_admm(prog)
        assert a.iterations == 0 and a.closed_form.all()
        assert abs(a.energy - lp_energy(prog)) <= 1e-9


def test_closed_form_squared_meets_kkt():
    for prog in uncoupled_programs(power=2):
        a = solve_map_admm(prog)
        assert a.iterations == 0 and a.closed_form.all()
        x = a.values
        # marginal decrease -f'(x) of each atom's energy
        atom, coef = prog.copy_atom, prog.copy_coef  # one copy per row, in row order
        slack = np.maximum(prog.pot_const + coef * x[atom], 0.0)
        decrease = np.bincount(atom, weights=-2 * prog.pot_weight * slack * coef,
                               minlength=prog.n_atoms).reshape(prog.n_pairs, -1)
        rows = x.reshape(prog.n_pairs, -1)
        assert np.all(rows >= 0) and np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        # one multiplier per block: atoms holding mass share the largest
        # marginal decrease, and no atom has a larger one
        nu = decrease.max(axis=1, keepdims=True)
        assert np.all(rows * (nu - decrease) <= 1e-9)


def test_closed_form_tied_slopes_share_in_proportion_to_length():
    # support and attack both lose 1 per unit on segments of 0.6 and 0.8;
    # together 1.4 > 1, so each segment gets 1/1.4 of its length
    for w_attack in (1.0, 1.0 + 1e-13):
        prog = uncoupled_program("binary", 1, [(0, -1.0, 0.6, 1.0),
                                               (1, -1.0, 0.8, w_attack)])
        a = solve_map_admm(prog)
        assert a.values == pytest.approx([0.6 / 1.4, 0.8 / 1.4], abs=1e-15)
    # a slope steeper by more than the tolerance fills first
    prog = uncoupled_program("binary", 1, [(0, -1.0, 0.6, 1.0),
                                           (1, -1.0, 0.8, 1.0 + 1e-9)])
    assert solve_map_admm(prog).values == pytest.approx([0.2, 0.8], abs=1e-15)


@pytest.mark.parametrize("power", [1, 2])
def test_closed_form_leftover_mass_is_spread_equally(power):
    # every row is satisfied at support 0.3 and attack 0.2; the remaining
    # 0.5 goes to the three atoms in equal parts
    prog = uncoupled_program("ternary", power, [(0, -1.0, 0.3, 1.0),
                                                (1, -1.0, 0.2, 2.0),
                                                (2, -1.0, -0.1, 1.0)])
    a = solve_map_admm(prog)
    assert a.values == pytest.approx([0.3 + 0.5 / 3, 0.2 + 0.5 / 3, 0.5 / 3], abs=1e-15)
    assert a.energy == 0.0


def test_closed_form_single_pairs_not_above_grid_oracle():
    singles = [p for p in map(random_ground_program, range(100)) if p.n_pairs == 1]
    assert len(singles) > 10
    for prog in singles:
        a = solve_map_admm(prog)
        assert a.closed_form.all()
        assert a.energy <= solve_map_grid(prog, 0.05).energy + 1e-12


def test_coupled_blocks_of_a_mixed_component_solve_as_if_alone():
    # a chain links a, b and the indirect pair; pair x shares a node but
    # no potential with them, so it is solved in closed form
    g = ArgumentGraph(task_mode="ternary")
    g.add_pair(ArgumentPair("a", "S", "I"))
    g.add_pair(ArgumentPair("b", "I", "C"))
    g, triples = build_indirect(g)
    g.add_pair(ArgumentPair("x", "S", "D"))
    vectors = {pid: PredicateVector(fact_entail=0.7, fact_contradict=0.4)
               for pid in ("a", "b", "x")}
    prog = ground_pairs(build_ruleset(RuleSetConfig(chains=True)), list(g), vectors,
                        triples, task_mode="ternary")
    exact = ~split_rows(prog).admm
    assert exact.tolist() == [b == "x" for b in prog.block_pair_ids]
    a = solve_map_admm(prog)
    alone = solve_map_admm(admm_part(prog))
    assert a.iterations == alone.iterations > 0
    k = len(prog.labels)
    assert np.array_equal(a.values.reshape(-1, k)[~exact], alone.values.reshape(-1, k))
    assert a.closed_form.tolist() == exact.tolist()


def test_closed_form_pairs_report_converged(monkeypatch):
    from arglogic.infer import run_inference

    g = ArgumentGraph(task_mode="ternary")
    for pid, s, c in (("a", "S", "I"), ("b", "I", "C"), ("x", "S", "D")):
        g.add_pair(ArgumentPair(pid, s, c))
    monkeypatch.setattr(solver, "MAX_ITERS", 2)
    result = run_inference(g, {}, RuleSetConfig(chains=True))
    assert not result.converged
    assert {pid: p.converged for pid, p in result.predictions.items()} == {
        "a": False, "b": False, "x": True}
