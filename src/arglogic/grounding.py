"""Grounding rule templates into hinge potentials over relation atoms.

Every ground potential's distance to satisfaction is a linear hinge
max(0, a.x + c) over the free atoms of its component; observed predicate
values are folded into the constant.  The simplex constraint is
structure, not a row: each pair's relation atoms sum to 1.  `ground`
writes the program straight into the flat arrays the ADMM kernel reads.
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
_NO_EVIDENCE = PredicateVector()  # the row of a pair without a score bundle


@dataclass
class GroundProgram:
    """One ground program in flat arrays, which `solver.split_rows` splits
    into the rows each solver reads.

    Atoms: with labels = labels_for_mode(task_mode) and k = len(labels),
    atom b*k + j is relation labels[j] of pair b, and each block of k
    atoms lies on the probability simplex.  Pairs (blocks) are numbered in
    pair-id order within each component; block_pair_ids[b] names pair b.

    Components: block_comp[b] is the component of block b.  A program from
    `ground` is one component (all 0).  `join` lays several out one after
    another: ids 0, 1, ... in block order, and each component's blocks,
    atoms, rows and copies are contiguous runs in that order.

    Rows are the soft hinge potentials, within each component in
    grounding order (per pair, its logic rules in LOGIC_RULES order and
    then its prior; then per chain triple, one row per chain rule):
      potentials[p]         rule id of row p
      pot_block[p]          block the row is attributed to (its head's pair)
      pot_const[p]          hinge constant
      pot_weight[p]         weight
    and every row has the hinge power `power`: 1 linear, 2 squared.

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
        """The program with each row weighted as its rule in weights, and
        the rows whose weight is then 0 dropped with their copies.  Given
        the rule weights of `rules.build_ruleset(config)`, this is the
        program `ground` writes under config, from one grounded under a
        config of the same structure (`rules.structure`).  When no row is
        dropped, every array but pot_weight is shared."""
        weight = np.array([weights[rid] for rid in self.potentials], dtype=float)
        reweighted = replace(self, pot_weight=weight)
        keep_row = weight != 0.0
        if keep_row.all():
            return reweighted
        return reweighted._subset(np.ones(self.n_pairs, dtype=bool), keep_row)

    def _subset(self, keep: np.ndarray, keep_row: np.ndarray) -> "GroundProgram":
        """The blocks where keep holds and the rows where keep_row holds, in
        the same order; a kept row may touch only kept blocks."""
        keep_atom = np.repeat(keep, len(self.labels))
        keep_copy = keep_row[self.copy_pot]
        return GroundProgram(
            task_mode=self.task_mode,
            block_pair_ids=[pid for pid, kept in zip(self.block_pair_ids, keep.tolist())
                            if kept],
            potentials=tuple(rid for rid, kept in zip(self.potentials, keep_row.tolist())
                             if kept),
            pot_block=_renumber(keep)[self.pot_block[keep_row]],
            pot_const=self.pot_const[keep_row],
            pot_weight=self.pot_weight[keep_row],
            power=self.power,
            copy_atom=_renumber(keep_atom)[self.copy_atom[keep_copy]],
            copy_pot=_renumber(keep_row)[self.copy_pot[keep_copy]],
            copy_coef=self.copy_coef[keep_copy],
            block_comp=self.block_comp[keep],
        )


def _renumber(keep: np.ndarray) -> np.ndarray:
    """The new index of each kept entry (the others' values are unused)."""
    return np.cumsum(keep) - 1


def ground(
    rules: list[Rule],
    pairs: Iterable[ArgumentPair],
    predicate_vectors: dict[str, PredicateVector],
    triples: Sequence[ChainTriple] = (),
    power: int = 1,
    prior_on_indirect: bool = True,
    task_mode: str = "ternary",
) -> GroundProgram:
    """Instantiate the rules over one set of pairs (typically a component).

    For each pair and each single-body rule whose predicate value is not
    NaN, the observed body is inlined:  d = max(0, value - head).  Chain
    rules ground once per triple over six free atoms.  The default prior
    grounds as d = 1 - default_atom.  The simplex is structure: no row.
    """
    labels = labels_for_mode(task_mode)
    k = len(labels)
    pair_list = sorted(pairs, key=lambda p: p.pair_id)
    n = len(pair_list)

    # single-copy rows: one column per nonzero logic rule, then the prior
    logic = [r for r in rules
             if r.id.startswith("R") and len(r.body) == 1 and r.weight != 0.0]
    prior = next((r for r in rules if r.id == "C1" and r.weight > 0.0), None)
    unary = logic + ([prior] if prior is not None else [])
    width = len(PREDICATE_NAMES)
    rows = (predicate_vectors.get(p.pair_id, _NO_EVIDENCE) for p in pair_list)
    evidence = np.fromiter(itertools.chain.from_iterable(rows), float, n * width).reshape(n, width)
    consts = evidence.take([PREDICATE_NAMES.index(r.body[0]) for r in logic], axis=1)  # NaN: no row
    if prior is not None:
        grounded = prior_on_indirect | (np.array([p.kind for p in pair_list], dtype=str) != "indirect")
        consts = np.hstack([consts, np.where(grounded, 1.0, np.nan)[:, None]])
    u_block, u_rule = np.nonzero(~np.isnan(consts))  # pair-major, rule order
    u_head = np.array([labels.index(r.head) for r in unary], dtype=np.int64)
    u_weight = np.array([r.weight for r in unary], dtype=float)

    # chain rows: per triple, one row per chain rule over (hop1, hop2, outer)
    chain_rules = [r for r in rules if r.id.startswith("R") and len(r.body) == 2]
    hops = np.empty((0, 3), dtype=np.int64)
    if chain_rules and len(triples):
        block_of = {p.pair_id: b for b, p in enumerate(pair_list)}
        try:
            hops = np.array([[block_of[t.first_hop], block_of[t.second_hop],
                              block_of[t.outer_pair]] for t in triples], dtype=np.int64)
        except KeyError as exc:
            raise ValidationError(
                f"chain triple references pair {exc.args[0]!r} outside the program") from None
    chain = [r for r in chain_rules if r.weight != 0.0]
    c_pos = np.array([[labels.index(r.body[0]), labels.index(r.body[1]),
                       labels.index(r.head)] for r in chain], dtype=np.int64).reshape(-1, 3)
    c_atoms = (hops[:, None, :] * k + c_pos[None, :, :]).ravel()
    n_chain = len(hops) * len(chain)

    sizes = np.concatenate([np.ones(len(u_block), dtype=np.int64),
                            np.full(n_chain, 3, dtype=np.int64)])
    return GroundProgram(
        task_mode=task_mode,
        block_pair_ids=[p.pair_id for p in pair_list],
        potentials=(tuple(unary[r].id for r in u_rule.tolist())
                    + tuple(r.id for r in chain) * len(hops)),
        pot_block=np.concatenate([u_block, np.repeat(hops[:, 2], len(chain))]).astype(np.int64),
        pot_const=np.concatenate([consts[u_block, u_rule], np.full(n_chain, -1.0)]),
        pot_weight=np.concatenate([u_weight[u_rule],
                                   np.tile([r.weight for r in chain], len(hops))]),
        power=power,
        copy_atom=np.concatenate([u_block * k + u_head[u_rule], c_atoms]).astype(np.int64),
        copy_pot=np.repeat(np.arange(len(sizes), dtype=np.int64), sizes),
        copy_coef=np.concatenate([np.full(len(u_block), -1.0),
                                  np.tile([1.0, 1.0, -1.0], n_chain)]),
        block_comp=np.zeros(n, dtype=np.int64),
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
        block_pair_ids=[pid for p in programs for pid in p.block_pair_ids],
        potentials=tuple(rid for p in programs for rid in p.potentials),
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
