"""End-to-end MAP inference: chains, predicates, grounding, solving.

`solve_configs` solves a grounding's programs under one or more configs
of its structure, each batch under several of them per solver call;
`run_inference` gathers one config's results.  An `infer` run is the
one-config case, and writes its output lines straight from the solver's
arrays (`prediction_lines`); a sweep solves its configs, all of one
structure, together and then gathers each config in turn.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .chains import ChainTriple, build_indirect
from .grounding import GroundProgram, ground, join
from .model import (BOOL, PROB, REQUIRED, STRING, TASK_MODES, ArgumentGraph, ScoreBundle,
                    Table, choice, connected_components, labels_for_mode, sums_to_one)
from .predicates import evaluate_all
from .rules import DEFAULT_CHAIN_GRID, DEFAULT_PRIOR_GRID, RuleSetConfig, build_ruleset, structure
from .solver import Assignment, solve_map_admm

log = logging.getLogger(__name__)

# Components are solved in batches of at most this many ADMM local copies
# (a program's hinge copies plus one simplex copy per atom), counted on the
# structure's programs over every block, those `solve_map_admm` solves in
# closed form included: one kernel call per batch instead of per
# component, while the batch's working arrays stay small.  A larger
# component is a batch of its own.
MAX_BATCH_COPIES = 4096

# `solve_configs` joins a batch under as many configs at once as keep the
# joined program within this many copies (counted as above), and always at
# least one: a full batch under every point of the default sweep grid, so
# a default sweep makes one kernel call per batch.  The cap also bounds the
# joined program, which is held while the kernel runs; above it, a
# `solve_map_admm` call peaks at about 92 bytes per copy
# (`test_joined_solve_memory_per_copy`).  On the sweep benchmark (ten
# seeds, 2 cores, numpy) the full join read +1.7 MB median peak RSS
# against two configs per call, and holding it through the call +0.6 MB.
MAX_JOINED_COPIES = len(DEFAULT_CHAIN_GRID) * len(DEFAULT_PRIOR_GRID) * MAX_BATCH_COPIES


@dataclass
class PairPrediction:
    pair_id: str
    scores: dict[str, float]  # each label of the mode -> its atom value
    predicted: str
    energy_share: float
    converged: bool


# The prediction record of each task mode; its label scores are a
# distribution, held in `PairPrediction.scores`.
_LABEL_SCORES = sums_to_one(held_in="scores")
PREDICTION_TABLES = {mode: Table(PairPrediction, [
    ("pair_id", STRING, REQUIRED, None),
    *((label, PROB, REQUIRED, _LABEL_SCORES) for label in labels_for_mode(mode)),
    ("predicted", choice(*labels_for_mode(mode)), REQUIRED, None),
    ("energy_share", PROB, 0.0, None),
    ("converged", BOOL, True, None),
]) for mode in TASK_MODES}


@dataclass
class InferenceResult:
    """One config's solve: its batch results and the graph they cover.
    `predictions` is built from them on first read."""
    solved: list[tuple[float, Assignment]]  # per batch: ground weight, assignment
    work: ArgumentGraph  # the pairs that were grounded, indirect ones included
    total_energy: float
    total_weight: float  # sum of ground soft-potential weights
    n_components: int
    n_potentials: int
    converged: bool

    @cached_property
    def predictions(self) -> dict[str, PairPrediction]:
        """Direct pairs only, in the solver's block order."""
        labels = labels_for_mode(self.work.task_mode)
        return {pid: PairPrediction(pid, dict(zip(labels, row)), predicted, share, conv)
                for pid, row, predicted, share, conv in _direct_blocks(self)}


def _direct_blocks(result: InferenceResult):
    """(pair id, label scores, predicted, energy share, converged) of each
    direct pair's block, in the solver's block order."""
    pairs = result.work.pairs
    k = len(labels_for_mode(result.work.task_mode))
    for _, assignment in result.solved:
        rows = assignment.values.reshape(len(assignment.pair_ids), k).tolist()
        for block in zip(assignment.pair_ids, rows, assignment.predicted,
                         assignment.shares.tolist(), assignment.block_converged.tolist()):
            if pairs[block[0]].kind == "direct":
                yield block


def prediction_lines(result: InferenceResult) -> list[str]:
    """The output line of each direct pair, in pair-id order (FORMATS.md),
    written by the mode's prediction table from the solver's arrays."""
    line = PREDICTION_TABLES[result.work.task_mode].line
    lines = {pid: line(pid, *row, predicted, share, conv)
             for pid, row, predicted, share, conv in _direct_blocks(result)}
    return [lines[pid] for pid in sorted(lines)]


@dataclass
class Grounding:
    """The ground programs of a graph under one rule-set structure.

    `programs` holds one program per component, in component order, with
    the swept weights (w_chain, w_prior) at a placeholder: `ground_graph`
    gives an iterable that grounds each one as it is reached, anew on
    every pass, and `solve_configs` solves them under any configs of that
    structure in one pass."""
    structure: RuleSetConfig
    work: ArgumentGraph  # the pairs that were grounded, indirect ones included
    n_components: int
    programs: Iterable[GroundProgram]


def ground_graph(
    graph: ArgumentGraph,
    bundles: dict[str, ScoreBundle],
    config: RuleSetConfig,
    ablate: frozenset[str] = frozenset(),
    restrict_split: str | None = None,
) -> Grounding:
    """Chains, predicates and components of the graph, and a lazy
    per-component grounding under `structure(config)`.

    `restrict_split` keeps only direct pairs of that split (plus the
    indirect pairs chained from them); used by the validation sweep.
    """
    shape = structure(config)
    rules = build_ruleset(shape)

    # indirect pairs only transmit evidence through chain rules
    work = ArgumentGraph(graph.task_mode, {
        pid: pair for pid, pair in graph.pairs.items()
        if (config.chains if pair.kind == "indirect"
            else restrict_split is None or pair.split == restrict_split)})

    triples: list[ChainTriple] = []
    if config.chains:
        if not work.direct_pairs():
            log.warning("chain rules requested on an empty graph")
        work, triples = build_indirect(work)
        if not triples:
            log.warning("chain rules requested but no indirect pairs exist")

    vectors = {pid: evaluate_all(bundles[pid], ablate=ablate)
               for pid in work.pairs if pid in bundles}

    components = connected_components(work)
    # A component's triples in the order a pair-id-ordered scan of its
    # pairs first meets them: by the earliest of each triple's pair ids.
    component_of = {p.pair_id: c for c, pairs in enumerate(components) for p in pairs}
    component_triples: list[list[ChainTriple]] = [[] for _ in components]
    for t in sorted(triples, key=lambda t: min(t.outer_pair, t.first_hop, t.second_hop)):
        component_triples[component_of[t.outer_pair]].append(t)

    def ground_component(pairs, comp_triples):
        return ground(rules, pairs, vectors, comp_triples,
                      power=shape.power,
                      prior_on_indirect=shape.prior_on_indirect,
                      task_mode=work.task_mode)

    return Grounding(shape, work, len(components),
                     _Mapped(ground_component, components, component_triples))


class _Mapped:
    """`map(fn, *iterables)`, made anew on each iteration."""

    def __init__(self, fn, *iterables):
        self.fn, self.iterables = fn, iterables

    def __iter__(self):
        return map(self.fn, *self.iterables)


def solve_configs(
    grounding: Grounding,
    configs: list[RuleSetConfig],
) -> Iterator[list[tuple[float, Assignment]]]:
    """Solve the grounding's programs under each config of its structure.

    The programs are solved in batches of components (`_batches`), each
    joined once and solved under as many configs per `solve_map_admm` call
    as MAX_JOINED_COPIES allows (`_solve_batch`).  Yields per batch, in
    batch order, one (ground weight, assignment) per config, in config
    order.
    """
    if any(structure(config) != grounding.structure for config in configs):
        raise ValueError("grounding was made under another rule-set structure")
    weights = [{rule.id: rule.weight for rule in build_ruleset(config)} for config in configs]
    for batch, copies in _batches(grounding.programs, MAX_BATCH_COPIES):
        joined = join(batch)
        batch.clear()  # from here on only the join holds the programs
        step = max(1, MAX_JOINED_COPIES // copies)
        yield [result for start in range(0, len(weights), step)
               for result in _solve_batch(joined, weights[start:start + step])]


def _solve_batch(batch: GroundProgram,
                 weights: list[dict[str, float]]) -> list[tuple[float, Assignment]]:
    """The joined batch under each rule-weight map, in one solve: joined
    config-major, each (config, component) is a component of its own and
    stops on its own residuals, as it would alone.  The re-weighted and
    joined programs are released when this returns."""
    parts = [batch.with_weights(w) for w in weights]
    assignment = solve_map_admm(join(parts))
    n_blocks, n_comps = batch.n_pairs, batch.n_components
    results, row = [], 0
    for c, part in enumerate(parts):
        n_rows = len(part.pot_const)
        results.append((part.total_weight, assignment.part(
            slice(c * n_blocks, (c + 1) * n_blocks), slice(row, row + n_rows),
            slice(c * n_comps, (c + 1) * n_comps))))
        row += n_rows
    return results


def run_inference(
    graph: ArgumentGraph,
    bundles: dict[str, ScoreBundle],
    config: RuleSetConfig,
    ablate: frozenset[str] = frozenset(),
    restrict_split: str | None = None,
    grounding: Grounding | None = None,
    solved: Iterable[tuple[float, Assignment]] | None = None,
) -> InferenceResult:
    """Solve MAP per connected component, in batches of components, and
    gather the batch results.  The result's `predictions` are built on
    first read; `prediction_lines` writes the output without them.

    `grounding` is `ground_graph`'s output for this graph, bundles, ablate
    and restrict_split under a config of the same structure; without it
    the graph is grounded here, one component at a time.  `solved` is
    this config's batch results from `solve_configs` on that grounding;
    without it the batches are solved here, one at a time.
    """
    if grounding is None:
        grounding = ground_graph(graph, bundles, config, ablate, restrict_split)
    if solved is None:
        solved = (results[0] for results in solve_configs(grounding, [config]))
    solved = list(solved)
    total_energy = 0.0
    total_weight = 0.0
    n_potentials = 0
    all_converged = True
    for weight, assignment in solved:
        total_energy += assignment.energy
        total_weight += weight
        n_potentials += len(assignment.row_energy)
        all_converged = all_converged and assignment.converged
        for c in np.flatnonzero(~assignment.component_converged).tolist():
            first, end = np.searchsorted(assignment.block_comp, [c, c + 1]).tolist()
            log.warning("component with pairs %s did not converge "
                        "(%d iterations, primal %.2e, dual %.2e)",
                        assignment.pair_ids[first:min(first + 3, end)],
                        assignment.component_iterations[c],
                        assignment.primal_residual[c], assignment.dual_residual[c])

    return InferenceResult(
        solved=solved,
        work=grounding.work,
        total_energy=total_energy,
        total_weight=total_weight,
        n_components=grounding.n_components,
        n_potentials=n_potentials,
        converged=all_converged,
    )


def _batches(programs, max_copies: int):
    """Consecutive programs grouped into lists of at most max_copies local
    copies, each with its number of copies; a larger program forms a list
    of its own."""
    batch: list[GroundProgram] = []
    copies = 0
    for program in programs:
        size = len(program.copy_atom) + program.n_atoms
        if batch and copies + size > max_copies:
            yield batch, copies
            batch, copies = [], 0
        batch.append(program)
        copies += size
    if batch:
        yield batch, copies


def predictions_to_records(predictions: dict[str, PairPrediction],
                           task_mode: str) -> list[dict]:
    """One output record per pair, in pair-id order (see FORMATS.md)."""
    write = PREDICTION_TABLES[task_mode].write
    return [write(predictions[pid]) for pid in sorted(predictions)]
