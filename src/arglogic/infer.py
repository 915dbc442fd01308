"""End-to-end MAP inference: chains, predicates, grounding, solving.

`solve_configs` solves a grounding's programs under one or more configs
of its structure, each batch under several of them per solver call;
`run_inference` collects one config's predictions from its results.  An
`infer` run is the one-config case; a sweep solves each structure's
configs together and then collects each config in turn.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .chains import ChainTriple, build_indirect
from .grounding import GroundProgram, ground, join
from .model import (BOOL, PROB, REQUIRED, STRING, TASK_MODES, ArgumentGraph, ScoreBundle,
                    Table, choice, connected_components, labels_for_mode, sums_to_one)
from .predicates import evaluate_all
from .rules import RuleSetConfig, build_ruleset, structure
from .solver import Assignment, SolverParams, solve_map_admm

log = logging.getLogger(__name__)

# Components are solved in batches of at most this many ADMM local copies
# (a program's hinge copies plus one simplex copy per atom), counted on the
# structure's programs: one kernel call per batch instead of per component,
# while the batch's working arrays stay small.  A larger component is a
# batch of its own.
MAX_BATCH_COPIES = 4096

# `solve_configs` joins a batch under as many configs at once as keep the
# joined program within this many copies (counted as above), and always at
# least one, so the kernel sees up to twice the batch cap.  On the sweep
# benchmark (seed 1, 2 cores, numpy; one run each) joining a 4k-copy batch
# under all six grid points read +56% pairs/s and +4.7 MB (12%) peak RSS
# against one call per grid point; two at a time read +40% and +1.7 MB.
MAX_JOINED_COPIES = 2 * MAX_BATCH_COPIES


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
    predictions: dict[str, PairPrediction]  # direct pairs only
    total_energy: float
    total_weight: float  # sum of ground soft-potential weights
    n_components: int
    n_potentials: int
    converged: bool


@dataclass
class Grounding:
    """The ground programs of a graph under one rule-set structure.

    `programs` holds one program per component, in component order, with
    the swept weights (w_chain, w_prior) at a placeholder: `ground_graph`
    gives an iterator that grounds each one as it is reached, and
    `solve_configs` solves them under any configs of that structure in
    one pass."""
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
                     map(ground_component, components, component_triples))


def solve_configs(
    grounding: Grounding,
    configs: list[RuleSetConfig],
    params: SolverParams | None = None,
) -> Iterator[list[tuple[float, Assignment]]]:
    """Solve the grounding's programs under each config of its structure.

    The programs are solved in batches of components (`_batches`), each
    batch under as many configs per `solve_map_admm` call as
    MAX_JOINED_COPIES allows: the batch's programs, re-weighted per config,
    are joined config-major, so each (config, component) is a component of
    its own and stops on its own residuals, as it would alone.  Yields per
    batch, in batch order, one (ground weight, assignment) per config, in
    config order.
    """
    params = params or SolverParams()
    if any(structure(config) != grounding.structure for config in configs):
        raise ValueError("grounding was made under another rule-set structure")
    weights = [{rule.id: rule.weight for rule in build_ruleset(config)} for config in configs]
    for batch, copies in _batches(grounding.programs, MAX_BATCH_COPIES):
        step = max(1, MAX_JOINED_COPIES // copies)
        yield [result for start in range(0, len(weights), step)
               for result in _solve_batch(batch, weights[start:start + step], params)]


def _solve_batch(batch: list[GroundProgram], weights: list[dict[str, float]],
                 params: SolverParams) -> list[tuple[float, Assignment]]:
    """The batch under each rule-weight map, in one solve; the re-weighted
    and joined programs are released when this returns."""
    parts = [[program.with_weights(w) for program in batch] for w in weights]
    assignment = solve_map_admm(join([p for part in parts for p in part]), params)
    n_blocks, n_comps = sum(p.n_pairs for p in batch), len(batch)
    results, row = [], 0
    for c, part in enumerate(parts):
        n_rows = sum(len(p.pot_const) for p in part)
        results.append((sum(p.total_weight for p in part), assignment.part(
            slice(c * n_blocks, (c + 1) * n_blocks), slice(row, row + n_rows),
            slice(c * n_comps, (c + 1) * n_comps))))
        row += n_rows
    return results


def run_inference(
    graph: ArgumentGraph,
    bundles: dict[str, ScoreBundle],
    config: RuleSetConfig,
    params: SolverParams | None = None,
    ablate: frozenset[str] = frozenset(),
    restrict_split: str | None = None,
    grounding: Grounding | None = None,
    solved: Iterable[tuple[float, Assignment]] | None = None,
) -> InferenceResult:
    """Solve MAP per connected component, in batches of components, and
    collect per-pair predictions.

    `grounding` is `ground_graph`'s output for this graph, bundles, ablate
    and restrict_split under a config of the same structure; without it
    the graph is grounded here, one component at a time.  `solved` is
    this config's batch results from `solve_configs` on that grounding;
    without it the batches are solved here, one at a time.
    """
    if grounding is None:
        grounding = ground_graph(graph, bundles, config, ablate, restrict_split)
    if solved is None:
        solved = (results[0] for results in solve_configs(grounding, [config], params))
    work = grounding.work

    predictions: dict[str, PairPrediction] = {}
    total_energy = 0.0
    total_weight = 0.0
    n_potentials = 0
    all_converged = True
    labels = labels_for_mode(work.task_mode)
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
        rows = assignment.values.reshape(len(assignment.pair_ids), len(labels)).tolist()
        for pair_id, row, predicted, share, conv in zip(
                assignment.pair_ids, rows, assignment.predicted,
                assignment.shares.tolist(), assignment.block_converged.tolist()):
            if work.pairs[pair_id].kind != "direct":
                continue
            predictions[pair_id] = PairPrediction(
                pair_id=pair_id,
                scores=dict(zip(labels, row)),
                predicted=predicted,
                energy_share=share,
                converged=conv,
            )

    return InferenceResult(
        predictions=predictions,
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
