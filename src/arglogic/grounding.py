"""Grounding rule templates into hinge potentials over relation atoms.

Every ground potential's distance to satisfaction is a linear hinge
max(0, a.x + c) over the free atoms of its component; observed predicate
values are folded into the constant.  The simplex constraint is
structure, not a row: each pair's relation atoms sum to 1.  `ground`
writes a batch of components straight into the flat arrays the ADMM
kernel reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .chains import ChainTriple
from .model import ArgumentPair, ValidationError, labels_for_mode
from .predicates import PREDICATE_NAMES, PredicateVector
from .rules import Rule

FEAS_TOL = 1e-6


@dataclass
class GroundProgram:
    """One ground program in flat arrays, which `solver.split_rows` splits
    into the rows each solver reads.

    Atoms: with labels = labels_for_mode(task_mode) and k = len(labels),
    atom b*k + j is relation labels[j] of pair b, and each block of k
    atoms lies on the probability simplex.  Pairs (blocks) are numbered in
    pair-id order within each component; block_pair_ids[b] names pair b.

    Components: block_comp[b] is the component of block b.  `ground`
    grounds a batch of components in one call, and `join` lays programs
    out one after another; either way the ids are 0, 1, ... in block
    order, and each component's blocks, atoms, rows and copies are
    contiguous runs in that order.

    Rows are the soft hinge potentials, within each component in
    grounding order (per pair, its logic rules in LOGIC_RULES order and
    then its prior; then per chain triple, one row per chain rule):
      potentials[p]         rule id of row p
      pot_block[p]          block the row is attributed to (its head's pair)
      pot_const[p]          hinge constant
      pot_weight[p]         weight
    and every row has the hinge power `power`: 1 linear, 2 squared.  The
    rows depend on the rule-set structure and the evidence alone, not on
    the weights: a row of weight 0 is grounded like any other, weighs
    nothing, and the solver skips it (`solver.split_rows`).

    Copies: copy_atom[c], copy_pot[c] and copy_coef[c] are the atom, the
    row and the hinge coefficient of local copy c.  copy_pot is the only
    link between rows and copies: each row's copies are one contiguous
    run, the runs follow the rows in order, and every row has at least
    one copy, so copy_pot is non-decreasing and takes every row index.
    """

    task_mode: str
    block_pair_ids: list[str]
    potentials: tuple[str, ...]
    pot_block: np.ndarray
    pot_const: np.ndarray
    pot_weight: np.ndarray
    power: int
    copy_atom: np.ndarray
    copy_pot: np.ndarray
    copy_coef: np.ndarray
    block_comp: np.ndarray

    @property
    def labels(self) -> tuple[str, ...]:
        return labels_for_mode(self.task_mode)

    @property
    def n_pairs(self) -> int:
        return len(self.block_pair_ids)

    @property
    def n_atoms(self) -> int:
        return self.n_pairs * len(self.labels)

    @property
    def n_components(self) -> int:
        return int(self.block_comp.max(initial=-1)) + 1

    @property
    def total_weight(self) -> float:
        """The row weights summed per component, then over the components,
        so that a join's total is its programs' totals summed, to the bit."""
        row_comp = self.block_comp[self.pot_block]
        ends = np.searchsorted(row_comp, np.arange(self.n_components + 1)).tolist()
        return sum((float(self.pot_weight[a:b].sum()) for a, b in zip(ends, ends[1:])), 0.0)

    def with_weights(self, weights: dict[str, float]) -> "GroundProgram":
        """The program with each row weighted as its rule in weights; every
        other array is shared.  Given the rule weights of
        `rules.build_ruleset(config)`, this is the program `ground` writes
        under config, from one grounded under a config of the same
        structure (`rules.structure`)."""
        return replace(self, pot_weight=np.array([weights[rid] for rid in self.potentials],
                                                 dtype=float))


def evidence(vectors: Iterable[PredicateVector]) -> np.ndarray:
    """The vectors' predicate values: one row per vector, in order, and one
    column per `PREDICATE_NAMES` entry.  A pair without a score bundle
    has the vector `PredicateVector()`, NaN throughout."""
    values = np.fromiter(itertools.chain.from_iterable(vectors), float)
    return values.reshape(-1, len(PREDICATE_NAMES))


def _one_copy_rows(rules: list[Rule], pairs: Sequence[ArgumentPair], evidence: np.ndarray,
                   prior_on_indirect: bool) -> tuple[list[Rule], list[np.ndarray]]:
    """Which (pair, rule) cells ground a one-copy row, and its constant.

    Returns the rules of the one-copy rows, in column order: the
    single-body logic rules, then the prior, whatever their weights.
    With them, one column per such rule, holding per pair (a row of
    `evidence`) the constant of the hinge row the cell grounds: the
    body's value for a logic rule (a view of `evidence`) and 1 for the
    prior.  A cell holds NaN where it grounds no row: the body's value is
    NaN, or the pair is indirect and the prior is off on indirect pairs."""
    logic = [r for r in rules if r.id.startswith("R") and len(r.body) == 1]
    prior = next(r for r in rules if r.id == "C1")
    columns = [evidence[:, PREDICATE_NAMES.index(r.body[0])] for r in logic]
    grounded = prior_on_indirect | (np.array([p.kind for p in pairs], dtype=str) != "indirect")
    return logic + [prior], columns + [np.where(grounded, 1.0, np.nan)]


def _chain_rules(rules: list[Rule]) -> list[Rule]:
    """The rules that ground three-copy rows, one per chain triple each:
    the chain (two-body) rules."""
    return [r for r in rules if r.id.startswith("R") and len(r.body) == 2]


def copy_counts(
    rules: list[Rule],
    components: Sequence[Sequence[ArgumentPair]],
    evidence: np.ndarray,
    n_triples: Sequence[int],
    prior_on_indirect: bool = True,
    task_mode: str = "ternary",
) -> np.ndarray:
    """Each component's local copies in the program `ground` writes from
    the same arguments, component c with n_triples[c] chain triples,
    counted without grounding: k per pair (its simplex copies), one per
    one-copy row and three per chain row."""
    pairs = [p for comp in components for p in comp]
    per_pair = np.full(len(pairs), len(labels_for_mode(task_mode)))
    for column in _one_copy_rows(rules, pairs, evidence, prior_on_indirect)[1]:
        per_pair += ~np.isnan(column)
    starts = np.cumsum([0] + [len(comp) for comp in components])
    summed = np.concatenate([[0], np.cumsum(per_pair)])
    return (summed[starts[1:]] - summed[starts[:-1]]
            + 3 * len(_chain_rules(rules)) * np.asarray(n_triples, dtype=np.int64))


def ground(
    rules: list[Rule],
    components: Sequence[Sequence[ArgumentPair]],
    evidence: np.ndarray,
    triples: Sequence[ChainTriple] = (),
    power: int = 1,
    prior_on_indirect: bool = True,
    task_mode: str = "ternary",
) -> GroundProgram:
    """Instantiate the rules over one or more components in one call.

    `components` holds each component's pairs in pair-id order, and
    `evidence` each pair's predicate values, one row per pair in that
    order (`evidence`).  `triples` are the components' chain triples, each
    component's in the order its rows are to follow.  The program is the
    `join` of the components grounded one at a time.

    For each pair and each single-body rule whose predicate value is not
    NaN, the observed body is inlined:  d = max(0, value - head).  Chain
    rules ground once per triple over six free atoms.  The default prior
    grounds as d = 1 - default_atom.  The simplex is structure: no row.
    """
    labels = labels_for_mode(task_mode)
    k = len(labels)
    pair_list = [p for pairs in components for p in pairs]
    block_comp = np.repeat(np.arange(len(components), dtype=np.int64),
                           [len(pairs) for pairs in components])

    # one-copy rows, pair-major and in column order
    unary, columns = _one_copy_rows(rules, pair_list, evidence, prior_on_indirect)
    consts = np.reshape(columns, (len(unary), len(pair_list))).T
    u_block, u_rule = np.nonzero(~np.isnan(consts))
    u_head = np.array([labels.index(r.head) for r in unary], dtype=np.int64)
    u_weight = np.array([r.weight for r in unary], dtype=float)

    # chain rows: per triple, one row per chain rule over (hop1, hop2, outer)
    chain = _chain_rules(rules)
    hops = np.empty((0, 3), dtype=np.int64)
    if chain and len(triples):
        block_of = {p.pair_id: b for b, p in enumerate(pair_list)}
        try:
            hops = np.array([[block_of[t.first_hop], block_of[t.second_hop],
                              block_of[t.outer_pair]] for t in triples], dtype=np.int64)
        except KeyError as exc:
            raise ValidationError(
                f"chain triple references pair {exc.args[0]!r} outside the program") from None
        if np.any(block_comp[hops] != block_comp[hops[:, 2:]]):
            raise ValidationError("chain triple references pairs of two components")
    c_pos = np.array([[labels.index(r.body[0]), labels.index(r.body[1]),
                       labels.index(r.head)] for r in chain], dtype=np.int64).reshape(-1, 3)
    c_atoms = (hops[:, None, :] * k + c_pos[None, :, :]).ravel()
    n_chain = len(hops) * len(chain)

    # each component's one-copy rows, then its chain rows, as `join` lays
    # them out: a stable sort of the rows, and of the copies, by component
    rows, copies = slice(None), slice(None)
    if len(components) > 1 and n_chain:
        u_comp, c_comp = block_comp[u_block], block_comp[hops[:, 2]]
        rows = np.argsort(np.concatenate([u_comp, np.repeat(c_comp, len(chain))]),
                          kind="stable")
        copies = np.argsort(np.concatenate([u_comp, np.repeat(c_comp, 3 * len(chain))]),
                            kind="stable")
    rule_ids = [r.id for r in unary + chain]
    row_rule = np.concatenate([u_rule, np.tile(np.arange(len(unary), len(rule_ids)), len(hops))])
    sizes = np.concatenate([np.ones(len(u_block), dtype=np.int64),
                            np.full(n_chain, 3, dtype=np.int64)])
    return GroundProgram(
        task_mode=task_mode,
        block_pair_ids=[p.pair_id for p in pair_list],
        potentials=tuple(map(rule_ids.__getitem__, row_rule[rows].tolist())),
        pot_block=np.concatenate([u_block, np.repeat(hops[:, 2], len(chain))]
                                 ).astype(np.int64)[rows],
        pot_const=np.concatenate([consts[u_block, u_rule], np.full(n_chain, -1.0)])[rows],
        pot_weight=np.concatenate([u_weight[u_rule],
                                   np.tile([r.weight for r in chain], len(hops))])[rows],
        power=power,
        copy_atom=np.concatenate([u_block * k + u_head[u_rule], c_atoms]
                                 ).astype(np.int64)[copies],
        copy_pot=np.repeat(np.arange(len(sizes), dtype=np.int64), sizes[rows]),
        copy_coef=np.concatenate([np.full(len(u_block), -1.0),
                                  np.tile([1.0, 1.0, -1.0], n_chain)])[copies],
        block_comp=block_comp,
    )


def join(programs: Sequence[GroundProgram]) -> GroundProgram:
    """One program holding the given programs' components, in order: a
    program's component ids follow on from those of the programs before
    it.  All must share a task mode and a hinge power."""
    modes, powers = {p.task_mode for p in programs}, {p.power for p in programs}
    if len(modes) != 1 or len(powers) != 1:
        raise ValidationError(f"cannot join programs of task modes {sorted(modes)} "
                              f"and hinge powers {sorted(powers)}")
    if len(programs) == 1:
        return programs[0]

    def shifted(arrays, sizes):
        """The arrays end to end, each plus the sum of the sizes before it."""
        return np.concatenate([a + off for a, off in zip(arrays, np.cumsum([0] + sizes[:-1]))])

    k = len(programs[0].labels)
    n_blocks = [p.n_pairs for p in programs]
    return GroundProgram(
        task_mode=programs[0].task_mode,
        block_pair_ids=list(itertools.chain.from_iterable(p.block_pair_ids for p in programs)),
        potentials=tuple(itertools.chain.from_iterable(p.potentials for p in programs)),
        pot_block=shifted([p.pot_block for p in programs], n_blocks),
        pot_const=np.concatenate([p.pot_const for p in programs]),
        pot_weight=np.concatenate([p.pot_weight for p in programs]),
        power=programs[0].power,
        copy_atom=shifted([p.copy_atom for p in programs], [k * n for n in n_blocks]),
        copy_pot=shifted([p.copy_pot for p in programs],
                         [len(p.pot_const) for p in programs]),
        copy_coef=np.concatenate([p.copy_coef for p in programs]),
        block_comp=shifted([p.block_comp for p in programs],
                           [p.n_components for p in programs]),
    )


def check_feasible(program: GroundProgram, values: np.ndarray):
    values = np.asarray(values, dtype=float)
    if values.shape != (program.n_atoms,):
        raise ValidationError(
            f"assignment has {values.shape} values, expected {program.n_atoms}")
    if np.any(values < -FEAS_TOL) or np.any(values > 1 + FEAS_TOL):
        raise ValidationError("assignment violates [0, 1] bounds")
    sums = values.reshape(program.n_pairs, len(program.labels)).sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > FEAS_TOL)[0]
    if len(bad):
        raise ValidationError(
            f"simplex constraint violated: block sums to {sums[bad[0]]:.8f}")


def energy(program: GroundProgram, values: np.ndarray) -> np.ndarray:
    """Each row's weighted hinge loss; the program's energy is their sum.
    Raises if the assignment is infeasible."""
    check_feasible(program, values)
    values = np.asarray(values, dtype=float)
    s = program.pot_const + np.bincount(
        program.copy_pot, weights=program.copy_coef * values[program.copy_atom],
        minlength=len(program.pot_const))
    return program.pot_weight * np.maximum(s, 0.0) ** program.power


def energy_by_pair(program: GroundProgram, row_energy: np.ndarray) -> np.ndarray:
    """Each pair's share of its component's energy (0.0 where that is 0),
    from each row's energy (`energy`)."""
    per_pair = np.bincount(program.pot_block, weights=row_energy, minlength=program.n_pairs)
    starts = np.flatnonzero(np.diff(program.block_comp, prepend=-1))
    total = np.add.reduceat(per_pair, starts)[program.block_comp]
    return np.divide(per_pair, total, out=np.zeros(program.n_pairs), where=total > 0)
