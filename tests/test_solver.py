from dataclasses import fields, replace
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arglogic.grounding import (
    GroundProgram,
    energy,
    energy_by_pair,
    ground,
    join,
)
from arglogic import kernels
from arglogic.kernels import project_rows
from arglogic.chains import build_indirect
from arglogic.infer import ground_graph
from arglogic.model import ArgumentGraph, ArgumentPair, ValidationError
from arglogic.predicates import PredicateVector, evaluate_all
from arglogic.rules import RuleSetConfig, build_ruleset, structure
from arglogic.solver import (
    SolverParams,
    _predict_labels,
    project_simplex,
    simplex_grid,
    solve_map_admm,
    solve_map_grid,
    uncoupled_blocks,
)
from arglogic.synth import SynthConfig, generate
from conftest import random_ground_program


def single_pair_program(vector, mode="ternary", w_prior=0.2, chains=False,
                        power=1):
    g = ArgumentGraph(task_mode=mode)
    g.add_pair(ArgumentPair("p1", "s", "c"))
    cfg = RuleSetConfig(task_mode=mode, w_prior=w_prior, chains=chains,
                        hinge_power="linear" if power == 1 else "squared")
    return ground(build_ruleset(cfg), list(g), {"p1": vector},
                  power=power, task_mode=mode)


def test_grounding_counts():
    prog = single_pair_program(PredicateVector(
        fact_entail=.5, fact_contradict=.5, fact_conflict=.5, senti_conflict=.5,
        senti_coherent=.5, cause_sc=.5, obstruct_sc=.5, cause_cs=.5,
        obstruct_cs=.5, backing_conseq=.5, refuting_conseq=.5,
        backing_norm=.5, refuting_norm=.5))
    assert len(prog.potentials) == 14  # 13 logic + prior
    assert len(prog.blocks) == 1 and len(prog.blocks[0]) == 3

    nli_only = single_pair_program(PredicateVector(fact_entail=.5,
                                                   fact_contradict=.3))
    assert sorted(nli_only.potentials) == ["C1", "R1", "R2"]


def test_grounding_chain_triple():
    g = ArgumentGraph(task_mode="ternary")
    g.add_pair(ArgumentPair("a", "S", "I"))
    g.add_pair(ArgumentPair("b", "I", "C"))
    g, triples = build_indirect(g)
    cfg = RuleSetConfig(chains=True)
    prog = ground(build_ruleset(cfg), list(g), {}, triples, task_mode="ternary")
    chain_rows = [p for p, rid in enumerate(prog.potentials)
                  if rid in ("R14", "R15", "R16", "R17")]
    assert len(chain_rows) == 4
    touched = set(prog.copy_atom[np.isin(prog.copy_pot, chain_rows)].tolist())
    relations = {prog.labels[i % len(prog.labels)] for i in touched}
    assert relations == {"support", "attack"}
    assert len(touched) == 6


def assert_programs_equal(a: GroundProgram, b: GroundProgram):
    for f in fields(GroundProgram):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("power", ["linear", "squared"])
def test_with_weights_equals_ground_under_the_config(power):
    cfg = SynthConfig(n_topics=3, tree_depth=3, branching=2, seed=4)
    graph, bundles, _ = generate(cfg)
    graph, triples = build_indirect(graph)
    assert triples
    vectors = {pid: evaluate_all(b) for pid, b in bundles.items()}
    base = RuleSetConfig(chains=True, hinge_power=power)

    def ground_under(config):
        return ground(build_ruleset(config), list(graph), vectors, triples,
                      power=config.power, task_mode=config.task_mode)

    placeholder = ground_under(structure(base))
    for w_chain, w_prior in product((0.0, 0.1, 1.0), (0.0, 0.3)):
        config = replace(base, w_chain=w_chain, w_prior=w_prior)
        reweighted = placeholder.with_weights(config)
        assert_programs_equal(reweighted, ground_under(config))
        if w_chain and w_prior:  # no row dropped: the arrays are shared
            assert reweighted.copy_atom is placeholder.copy_atom


def test_energy_examples():
    prog = single_pair_program(PredicateVector(fact_entail=1.0))
    sat = np.array([1.0, 0.0, 0.0])
    # R1 satisfied, prior d = 1 at neutral 0 -> energy 0.2
    assert energy(prog, sat) == pytest.approx(0.2)
    infeasible = np.array([1.0, 0.5, 0.0])
    with pytest.raises(ValidationError):
        energy(prog, infeasible)


def test_energy_weighted_sum():
    # two hand-built potentials over support, w=2 d=0.5 and w=1 d=0.25 at
    # support=0.5, then the pair's simplex row
    prog = GroundProgram(
        task_mode="binary", block_pair_ids=["p"], potentials=("R1", "R1"),
        pot_block=np.zeros(3, dtype=np.int64),
        pot_ptr=np.array([0, 1, 2, 4]), pot_const=np.array([1.0, 0.75, 0.0]),
        pot_weight=np.array([2.0, 1.0, 0.0]), pot_power=np.array([1, 1, 0]),
        copy_atom=np.array([0, 0, 0, 1]), copy_pot=np.array([0, 1, 2, 2]),
        copy_coef=np.array([-1.0, -1.0, 0.0, 0.0]))
    assert energy(prog, np.array([0.5, 0.5])) == pytest.approx(1.25)
    assert energy_by_pair(prog, np.array([0.5, 0.5])) == {"p": 1.0}


def test_energy_matches_per_potential_loop():
    rng = np.random.default_rng(3)
    for seed in range(20):
        prog = random_ground_program(seed)
        values = rng.dirichlet(np.ones(len(prog.labels)), prog.n_pairs).ravel()
        per_pair = dict.fromkeys(prog.block_pair_ids, 0.0)
        for p in range(len(prog.potentials)):
            copies = range(prog.pot_ptr[p], prog.pot_ptr[p + 1])
            s = prog.pot_const[p] + sum(prog.copy_coef[c] * values[prog.copy_atom[c]]
                                        for c in copies)
            per_pair[prog.block_pair_ids[prog.pot_block[p]]] += (
                prog.pot_weight[p] * max(0.0, s) ** prog.pot_power[p])
        total = sum(per_pair.values())
        assert energy(prog, values) == pytest.approx(total, rel=1e-12, abs=1e-15)
        shares = energy_by_pair(prog, values)
        for pid, e in per_pair.items():
            assert shares[pid] == pytest.approx(e / total, rel=1e-12, abs=1e-15)


def test_label_ties_go_to_the_most_conservative_relation():
    g = ArgumentGraph(task_mode="ternary")
    for pid in ("a", "b", "c"):
        g.add_pair(ArgumentPair(pid, "s" + pid, "c" + pid))
    prog = ground(build_ruleset(RuleSetConfig()), list(g), {})
    # support/attack/neutral per pair: all tied, attack~support, clear support
    values = np.array([1 / 3, 1 / 3, 1 / 3, 0.5, 0.5 - 1e-10, 0.0, 0.6, 0.4, 0.0])
    assert _predict_labels(prog, values) == {
        "a": "neutral", "b": "attack", "c": "support"}


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
    assert a.values[prog.index_of("p1", "neutral")] == pytest.approx(1.0, abs=1e-4)
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


def kernel_iterations(prog, params=SolverParams()):
    """ADMM iterations of the kernel on all of the program's blocks."""
    k = len(prog.labels)
    return kernels.solve_admm(
        prog.copy_atom, prog.copy_pot, prog.copy_coef, prog.pot_ptr,
        prog.pot_const, prog.pot_weight, prog.pot_power, prog.n_atoms,
        np.full(prog.n_atoms, 1.0 / k), params.rho, params.eps_abs,
        params.eps_rel, params.max_iters).iterations


def test_admm_iterations_golden():
    # pinned counts: the kernel is deterministic, so a change to the
    # grounded arrays or their order moves them
    iterations = [kernel_iterations(random_ground_program(s)) for s in range(10)]
    assert iterations == [35, 30, 149, 168, 56, 123, 27, 33, 186, 38]


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
    prog = ground(build_ruleset(RuleSetConfig()), list(g), {})
    with pytest.raises(ValidationError, match="grid oracle"):
        solve_map_grid(prog)


def test_feasibility_of_returned_assignments():
    for seed in range(20):
        prog = random_ground_program(seed + 1000)
        a = solve_map_admm(prog)
        for block in prog.blocks:
            vals = a.values[list(block)]
            assert vals.sum() == pytest.approx(1.0, abs=1e-6)
            assert (vals >= -1e-6).all()


def test_convexity_witness():
    rng = np.random.default_rng(7)
    for seed in range(10):
        prog = random_ground_program(seed + 50)
        k = len(prog.blocks[0])

        def feasible_point():
            vals = np.empty(prog.n_atoms)
            for block in prog.blocks:
                vals[list(block)] = rng.dirichlet(np.ones(k))
            return vals

        for _ in range(10):
            x, y = feasible_point(), feasible_point()
            mid = (x + y) / 2
            assert energy(prog, mid) <= (energy(prog, x) + energy(prog, y)) / 2 + 1e-9


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


def test_solver_params_validation():
    with pytest.raises(ValidationError):
        SolverParams(rho=0)
    with pytest.raises(ValidationError):
        SolverParams(max_iters=-1)


def test_non_convergence_is_reported_not_fatal():
    prog = random_ground_program(1)  # three pairs coupled by a chain triple
    assert not uncoupled_blocks(prog).any()
    a = solve_map_admm(prog, SolverParams(max_iters=2))
    assert not a.converged
    assert a.iterations == 2
    for block in prog.blocks:  # still exactly feasible
        assert a.values[list(block)].sum() == pytest.approx(1.0, abs=1e-9)


def programs_of_mode(mode, count):
    """Random one-component programs of one mode, with distinct pair ids."""
    programs = [p for p in map(random_ground_program, range(200))
                if p.task_mode == mode][:count]
    return [replace(p, block_pair_ids=[f"c{i}/{pid}" for pid in p.block_pair_ids])
            for i, p in enumerate(programs)]


@pytest.mark.parametrize("mode", ["ternary", "binary"])
def test_batched_solve_equals_per_component_solve(mode):
    programs = programs_of_mode(mode, 12)
    assert {int(p.pot_power.max()) for p in programs} == {1, 2}
    alone = [solve_map_admm(p) for p in programs]
    for order in (range(12), range(11, -1, -1)):
        solo = [alone[i] for i in order]
        a = solve_map_admm(join([programs[i] for i in order]))
        assert np.array_equal(a.values, np.concatenate([s.values for s in solo]))
        assert a.component_iterations.tolist() == [s.iterations for s in solo]
        assert a.component_converged.tolist() == [s.converged for s in solo]
        assert a.iterations == sum(s.iterations for s in solo)
        assert a.labels == {k: v for s in solo for k, v in s.labels.items()}
        assert a.energy_shares == {k: v for s in solo for k, v in s.energy_shares.items()}


def test_capped_component_does_not_stop_the_batch():
    # binary, each three pairs coupled by a chain triple
    programs = [random_ground_program(s) for s in (15, 16, 25, 41)]
    assert not any(uncoupled_blocks(p).any() for p in programs)
    iters = [solve_map_admm(p).iterations for p in programs]
    assert iters == [51, 62, 224, 46]
    params = SolverParams(max_iters=100)
    a = solve_map_admm(join(programs), params)
    assert a.component_converged.tolist() == [True, True, False, True]
    assert a.component_iterations.tolist() == [51, 62, 100, 46]
    assert not a.converged
    capped = solve_map_admm(programs[2], params)
    assert not capped.converged
    start = programs[0].n_atoms + programs[1].n_atoms
    assert np.array_equal(a.values[start:start + programs[2].n_atoms], capped.values)


def project_rows_by_sort(V):
    """Reference: the sort-based simplex projection, row by row."""
    k = V.shape[1]
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - 1.0
    cond = U - css / np.arange(1, k + 1, dtype=float) > 0
    rho = k - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(len(V)), rho] / (rho + 1)
    return np.maximum(V - theta[:, None], 0.0)


@pytest.mark.parametrize("k", [2, 3])
def test_project_rows_matches_sort_reference(k):
    rng = np.random.default_rng(k)
    rows = [rng.normal(0.3, 1.0, (4000, k)),
            rng.integers(-4, 5, (4000, k)) / 4.0,  # many exact ties
            np.repeat(rng.normal(0.0, 2.0, (1000, 1)), k, axis=1),  # all equal
            rng.random((4000, k)) * 1e-9 + 1.0 / k]
    V = np.concatenate(rows)
    assert np.array_equal(project_rows(V), project_rows_by_sort(V))


def synth_chain_batch():
    """The ADMM blocks of every chain-coupled component of a small synth
    dataset, each as `solve_map_admm` passes them on, joined in one batch."""
    graph, bundles, _ = generate(SynthConfig(seed=1, n_topics=6, tree_depth=4, branching=2))
    config = RuleSetConfig(chains=True)
    programs = [p.with_weights(config) for p in ground_graph(graph, bundles, config).programs]
    coupled = [p.select(~uncoupled_blocks(p)) for p in programs
               if not uncoupled_blocks(p).all()]
    return coupled, join(coupled)


def run_kernel(prog, max_iters):
    k = len(prog.labels)
    return kernels.solve_admm(
        prog.copy_atom, prog.copy_pot, prog.copy_coef, prog.pot_ptr,
        prog.pot_const, prog.pot_weight, prog.pot_power, prog.n_atoms,
        np.full(prog.n_atoms, 1.0 / k), 1.0, 1e-5, 1e-4, max_iters,
        np.repeat(prog.block_comp, k))


def test_synth_chain_batch_golden():
    # pinned: alone, the components stop at 454, 427, 410, 460, 448 and
    # 418 iterations; the cap stops the fourth, and the running half is
    # gathered when the third of them stops
    components, batch = synth_chain_batch()
    result = run_kernel(batch, max_iters=455)
    assert result.component_iterations.tolist() == [454, 427, 410, 455, 448, 418]
    assert result.converged.tolist() == [True, True, True, False, True, True]
    assert not result.nan_seen.any()
    start = 0
    for prog in components:
        alone = run_kernel(prog, max_iters=455)
        assert np.array_equal(result.z[start:start + prog.n_atoms], alone.z)
        start += prog.n_atoms


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


def hand_program(seed, n_atoms, width):
    """Linear hinge rows of one to three copies over n_atoms atoms (one row
    on each atom, then random ones), followed by a simplex row on each run
    of `width` atoms, or by none when width is 0; with the attributes
    `lp_energy` reads."""
    rng = np.random.default_rng(seed)
    rows = [[a] for a in range(n_atoms)]
    rows += [sorted(rng.choice(n_atoms, rng.integers(1, 4), replace=False).tolist())
             for _ in range(2 * n_atoms)]
    n_hinge = len(rows)
    if width:
        rows += [list(range(b, b + width)) for b in range(0, n_atoms, width)]
    sizes = [len(r) for r in rows]
    n_simplex = len(rows) - n_hinge
    return SimpleNamespace(
        copy_atom=np.array([a for r in rows for a in r]),
        copy_pot=np.repeat(np.arange(len(rows)), sizes),
        copy_coef=np.concatenate([rng.normal(size=sum(sizes[:n_hinge])),
                                  np.zeros(sum(sizes[n_hinge:]))]),
        pot_ptr=np.concatenate([[0], np.cumsum(sizes)]),
        pot_const=np.concatenate([rng.normal(0.0, 0.5, n_hinge), np.zeros(n_simplex)]),
        pot_weight=np.concatenate([rng.uniform(0.5, 2.0, n_hinge), np.zeros(n_simplex)]),
        pot_power=np.concatenate([np.ones(n_hinge, int), np.zeros(n_simplex, int)]),
        n_atoms=n_atoms, n_pairs=n_simplex, labels=range(width))


@pytest.mark.parametrize("width", [0, 4, 5])
def test_kernel_solves_programs_without_simplex_rows_or_of_other_widths(width):
    for seed in range(3):
        prog = hand_program(seed, 20, width)
        result = kernels.solve_admm(
            prog.copy_atom, prog.copy_pot, prog.copy_coef, prog.pot_ptr, prog.pot_const,
            prog.pot_weight, prog.pot_power, prog.n_atoms, np.full(prog.n_atoms, 0.5),
            1.0, 1e-7, 1e-6, 25_000)
        assert result.converged.all() and not result.nan_seen.any()
        x = result.z
        if width:
            assert np.allclose(x.reshape(-1, width).sum(axis=1), 1.0, atol=1e-5)
            x = project_rows(x.reshape(-1, width)).ravel()
        value = prog.pot_const + np.bincount(prog.copy_pot, weights=prog.copy_coef * x[prog.copy_atom])
        energy = np.sum((prog.pot_weight * np.maximum(value, 0.0))[prog.pot_power > 0])
        assert energy == pytest.approx(lp_energy(prog), rel=1e-4, abs=1e-4)


# ---------------------------------------------------------------------------
# closed form for uncoupled blocks

def uncoupled_program(mode, power, rows, n_pairs=1):
    """A hand-built program of one-copy rows (atom, coefficient, constant,
    weight) followed by one simplex row per pair."""
    k = 3 if mode == "ternary" else 2
    atoms = np.array([r[0] for r in rows], dtype=np.int64)
    n_rows = len(rows)
    sizes = np.concatenate([np.ones(n_rows, dtype=np.int64),
                            np.full(n_pairs, k, dtype=np.int64)])
    return GroundProgram(
        task_mode=mode, block_pair_ids=[f"p{b}" for b in range(n_pairs)],
        potentials=("R1",) * n_rows,
        pot_block=np.concatenate([atoms // k, np.arange(n_pairs)]),
        pot_ptr=np.concatenate([[0], np.cumsum(sizes)]),
        pot_const=np.concatenate([[r[2] for r in rows], np.zeros(n_pairs)]),
        pot_weight=np.concatenate([[r[3] for r in rows], np.zeros(n_pairs)]),
        pot_power=np.concatenate([np.full(n_rows, power), np.zeros(n_pairs)]).astype(np.int64),
        copy_atom=np.concatenate([atoms, np.arange(n_pairs * k)]),
        copy_pot=np.repeat(np.arange(len(sizes)), sizes),
        copy_coef=np.concatenate([[r[1] for r in rows], np.zeros(n_pairs * k)]))


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
                if int(p.pot_power.max()) == power and uncoupled_blocks(p).all()]
    built = [random_uncoupled_program(rng, mode, power)
             for mode in ("ternary", "binary") for _ in range(30)]
    assert {p.task_mode for p in grounded} == {"ternary", "binary"}
    return grounded + built


def lp_energy(prog):
    """Optimum of the linear-hinge MAP as an LP over (x, slacks), x in
    [0, 1] and each block of len(prog.labels) atoms on the simplex."""
    from scipy.optimize import linprog

    hinge = np.flatnonzero(prog.pot_power > 0)
    n, m = prog.n_atoms, len(hinge)
    a_ub = np.zeros((m, n + m))
    for i, r in enumerate(hinge.tolist()):
        for c in range(prog.pot_ptr[r], prog.pot_ptr[r + 1]):
            a_ub[i, prog.copy_atom[c]] += prog.copy_coef[c]
    a_ub[np.arange(m), n + np.arange(m)] = -1.0
    k = len(prog.labels)
    a_eq = np.zeros((prog.n_pairs, n + m))
    a_eq[np.repeat(np.arange(prog.n_pairs), k), np.arange(prog.n_pairs * k)] = 1.0
    res = linprog(np.concatenate([np.zeros(n), prog.pot_weight[hinge]]),
                  A_ub=a_ub, b_ub=-prog.pot_const[hinge], A_eq=a_eq,
                  b_eq=np.ones(prog.n_pairs),
                  bounds=[(0, 1)] * n + [(0, None)] * m, method="highs")
    assert res.status == 0
    return res.fun


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
        hinge = np.flatnonzero(prog.pot_power > 0)
        copy = prog.pot_ptr[hinge]
        atom, coef = prog.copy_atom[copy], prog.copy_coef[copy]
        slack = np.maximum(prog.pot_const[hinge] + coef * x[atom], 0.0)
        decrease = np.bincount(atom, weights=-2 * prog.pot_weight[hinge] * slack * coef,
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
    prog = ground(build_ruleset(RuleSetConfig(chains=True)), list(g), vectors,
                  triples, task_mode="ternary")
    exact = uncoupled_blocks(prog)
    assert exact.tolist() == [b == "x" for b in prog.block_pair_ids]
    a = solve_map_admm(prog)
    alone = solve_map_admm(prog.select(~exact))
    assert a.iterations == alone.iterations > 0
    k = len(prog.labels)
    assert np.array_equal(a.values.reshape(-1, k)[~exact], alone.values.reshape(-1, k))
    assert a.closed_form.tolist() == exact.tolist()


def test_closed_form_pairs_report_converged():
    from arglogic.infer import run_inference

    g = ArgumentGraph(task_mode="ternary")
    for pid, s, c in (("a", "S", "I"), ("b", "I", "C"), ("x", "S", "D")):
        g.add_pair(ArgumentPair(pid, s, c))
    result = run_inference(g, {}, RuleSetConfig(chains=True),
                           params=SolverParams(max_iters=2))
    assert not result.converged
    assert {pid: p.converged for pid, p in result.predictions.items()} == {
        "a": False, "b": False, "x": True}
