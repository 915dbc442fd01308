"""MAP inference: an exact solve for uncoupled pairs, consensus ADMM for
the rest.

`split_rows` splits a program's rows once per solve.  A one-atom row has
one copy, with a negative coefficient (every logic rule and the prior);
the other rows (in practice, the chain rows) are hinge rows.  A pair
(block) that no hinge row reaches is uncoupled: its energy is a sum of
non-increasing one-atom hinges on its own simplex, a separable resource
allocation solved in closed form (`solve_uncoupled`).  With chains off
every pair is uncoupled.  The one-atom rows are ordered by atom and then
by breakpoint once, and both solvers read them in that order.

The other blocks go to one ADMM call with the hinge rows and their
one-atom rows.  Each hinge row and each block's simplex constraint holds
private copies of its atoms.  The consensus step averages an atom's
copies, pulls the average toward 1/k by the proximal term
delta/2·‖x − 1/k‖², and takes the exact minimiser over [0, 1] of that and
the atom's one-atom rows, which hold no copies (`kernels`).  So the
closed-form blocks minimise the hinge energy exactly, and the ADMM blocks
minimise the hinge energy plus that term, whose minimiser is unique:
their labels do not depend on ρ or on where on a face of optima ADMM
would stop.  Each component runs at its own penalty ρ, the mean weight of
the rows on its ADMM blocks (`penalties`), and its delta is
DELTA_PER_WEIGHT times that ρ, so the term scales with the hinges:
multiplying every weight by a constant scales a component's objective and
leaves its minimiser where it was, and since ρ, delta and every stopping
threshold scale with it, ADMM takes the same steps.  Reported energies and
shares are the plain hinge energy of the returned values.
Components stay the node-connected ones the caller passes, and each
stops on the residuals of its ADMM blocks alone.  The returned
assignment is projected block-wise onto the simplex so it is exactly
feasible.

ADMM's consensus step is over-relaxed by ALPHA = 1.5 (Boyd et al. 2011,
§3.4.3).  It stops a component on the residual test of §3.3.1 with
tolerances EPS_ABS = 1e-5 and EPS_REL = 1e-4, or unconverged at
MAX_ITERS = 25,000 iterations.  These are constants of the solver, not
options: no command or config sets them, and `solve_map_admm` reads them
when it is called.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .grounding import GroundProgram, energy, energy_by_pair
from .model import ATTACK, NEUTRAL, SUPPORT

LABEL_PRIORITY = (NEUTRAL, ATTACK, SUPPORT)  # tie-break, most conservative first
TIE_TOL = 1e-9
DELTA_PER_WEIGHT = 0.1  # an ADMM component's proximal weight per unit of its ρ
EPS_ABS, EPS_REL = 1e-5, 1e-4  # the stopping rule's absolute and relative tolerances
MAX_ITERS = 25_000  # a component still running here stops unconverged
ALPHA = 1.5  # ADMM's over-relaxation


def _empty(dtype):
    return field(default_factory=lambda: np.zeros(0, dtype=dtype))


@dataclass
class Assignment:
    """The MAP of a program.  Per-block and per-row arrays follow the
    program's blocks and rows; per-component ones are indexed by
    `block_comp`, and describe the ADMM blocks only."""

    values: np.ndarray  # per free atom
    pair_ids: list[str]  # per block: GroundProgram.block_pair_ids
    predicted: list[str]  # per block: its relation
    shares: np.ndarray  # per block: share of its component's energy
    row_energy: np.ndarray  # per row: weighted hinge loss
    block_comp: np.ndarray = _empty(np.int64)
    closed_form: np.ndarray = _empty(bool)  # per block: solved without ADMM
    component_iterations: np.ndarray = _empty(np.int64)
    component_converged: np.ndarray = _empty(bool)
    primal_residual: np.ndarray = _empty(float)  # ‖y − z̃‖ over the copies
    dual_residual: np.ndarray = _empty(float)  # ρ·‖Δz‖ at the component's ρ

    @property
    def energy(self) -> float:
        return float(self.row_energy.sum())

    @property
    def iterations(self) -> int:
        """Summed over the components."""
        return int(self.component_iterations.sum())

    @property
    def converged(self) -> bool:
        """Every component converged."""
        return bool(self.component_converged.all())

    @property
    def labels(self) -> dict[str, str]:
        """pair_id -> predicted relation, for a program holding each pair once."""
        return dict(zip(self.pair_ids, self.predicted))

    @property
    def energy_shares(self) -> dict[str, float]:
        """pair_id -> share of its component's energy, as `labels`."""
        return dict(zip(self.pair_ids, self.shares.tolist()))

    @property
    def block_converged(self) -> np.ndarray:
        """Per block: solved in closed form or its component converged."""
        return self.component_converged[self.block_comp] | self.closed_form

    def part(self, blocks: slice, rows: slice, comps: slice) -> "Assignment":
        """The assignment of a run of whole components of the program: the
        given blocks, rows and components of this one's."""
        k = len(self.values) // max(1, len(self.pair_ids))
        return Assignment(
            values=self.values[blocks.start * k:blocks.stop * k],
            pair_ids=self.pair_ids[blocks],
            predicted=self.predicted[blocks],
            shares=self.shares[blocks],
            row_energy=self.row_energy[rows],
            block_comp=self.block_comp[blocks] - comps.start,
            closed_form=self.closed_form[blocks],
            component_iterations=self.component_iterations[comps],
            component_converged=self.component_converged[comps],
            primal_residual=self.primal_residual[comps],
            dual_residual=self.dual_residual[comps],
        )


def _predict_labels(program: GroundProgram, values: np.ndarray) -> list[str]:
    """Each pair's highest-valued relation; near-ties go to LABEL_PRIORITY."""
    labels = program.labels
    rows = values.reshape(program.n_pairs, len(labels))
    near_best = rows >= rows.max(axis=1, keepdims=True) - TIE_TOL
    order = [labels.index(rel) for rel in LABEL_PRIORITY if rel in labels]
    chosen = np.argmax(near_best[:, order], axis=1)
    return [labels[order[c]] for c in chosen.tolist()]


def solve_map_admm(program: GroundProgram) -> Assignment:
    """MAP of the program: uncoupled blocks in closed form, the rest by one
    ADMM call.  The per-component results describe the ADMM blocks only; a
    component without any reports 0 iterations, zero residuals and
    converged."""
    k = len(program.labels)
    split = split_rows(program)
    admm = split.admm
    n_comp = program.n_components
    iterations = np.zeros(n_comp, dtype=np.int64)
    converged = np.ones(n_comp, dtype=bool)
    primal, dual = np.zeros(n_comp), np.zeros(n_comp)
    z = np.empty((program.n_pairs, k))
    if not admm.all():
        z[~admm] = solve_uncoupled(split.closed_form_rows, program.n_pairs - int(admm.sum()),
                                   k, program.power)
    if admm.any():
        comp = program.block_comp[admm]
        # the kernel's results, its rho and its delta are per run of comp
        comps = comp[np.flatnonzero(np.diff(comp, prepend=-1))]
        rho = penalties(program, admm)[comps]
        # only the arrays the kernel reads stay held while it runs
        arrays = (*split.hinge, split.admm_rows, k, program.power,
                  np.full(k * len(comp), 1.0 / k))
        del split
        result = kernels.solve_admm(*arrays, rho, EPS_ABS, EPS_REL, MAX_ITERS,
                                    np.repeat(comp, k), DELTA_PER_WEIGHT * rho, ALPHA)
        z[admm] = result.z.reshape(-1, k)
        iterations[comps] = result.component_iterations
        converged[comps] = result.converged
        primal[comps] = result.primal_residual
        dual[comps] = result.dual_residual
    values = kernels.project_rows(z).ravel()  # each block exactly on the simplex
    row_energy = energy(program, values)
    return Assignment(
        values=values,
        pair_ids=program.block_pair_ids,
        predicted=_predict_labels(program, values),
        shares=energy_by_pair(program, row_energy),
        row_energy=row_energy,
        block_comp=program.block_comp,
        closed_form=~admm,
        component_iterations=iterations,
        component_converged=converged,
        primal_residual=primal,
        dual_residual=dual,
    )


def penalties(program: GroundProgram, admm: np.ndarray) -> np.ndarray:
    """Per component, ADMM's penalty ρ: the mean weight of the rows on its
    blocks where admm holds (a row's head is one of its atoms), or 1 where
    those rows weigh nothing."""
    rows = admm[program.pot_block]
    row_comp = program.block_comp[program.pot_block[rows]]
    n_comp = program.n_components
    total = np.bincount(row_comp, weights=program.pot_weight[rows], minlength=n_comp)
    count = np.bincount(row_comp, minlength=n_comp)
    return np.where(total > 0, total / np.maximum(count, 1), 1.0)


class RowSplit(NamedTuple):
    """A program's rows as the two solvers read them (`split_rows`).  Atoms
    are numbered within the blocks each solver gets, in program order."""

    admm: np.ndarray  # per block: solved by ADMM, not in closed form
    hinge: tuple  # the hinge rows: copy_atom, copy_pot, copy_coef, pot_const, pot_weight
    admm_rows: tuple  # the ADMM blocks' one-atom rows: atom, coef, const, weight
    closed_form_rows: tuple  # the other blocks' one-atom rows, likewise


def split_rows(program: GroundProgram, admm_all: bool = False) -> RowSplit:
    """The program's rows, split once.  A one-atom row has one copy and a
    negative coefficient, so its term does not increase in its atom.  The
    other rows are hinge rows, and a block that one of their copies reaches
    is coupled: it goes to ADMM, with every row on its atoms.  With
    admm_all, every block does.  The one-atom rows are ordered by atom and
    then by breakpoint t = const/|coef|, ties in row order."""
    k = len(program.labels)
    copy_atom, copy_pot, copy_coef = program.copy_atom, program.copy_pot, program.copy_coef
    one_copy = np.bincount(copy_pot, minlength=len(program.pot_const)) == 1
    folded = one_copy[copy_pot] & (copy_coef < 0)
    hinge = ~folded
    admm = np.full(program.n_pairs, admm_all)
    admm[copy_atom[hinge] // k] = True
    admm_atom = np.repeat(admm, k)
    # each atom's index among the atoms on its side
    local = np.where(admm_atom, np.cumsum(admm_atom), np.cumsum(~admm_atom)) - 1
    rows = copy_pot[folded]
    atom, coef = copy_atom[folded], copy_coef[folded]
    const, weight = program.pot_const[rows], program.pot_weight[rows]
    order = np.lexsort((const / -coef, atom))
    atom, coef, const, weight = (a[order] for a in (atom, coef, const, weight))
    on = admm_atom[atom]
    hinge_row = np.bincount(copy_pot, weights=hinge, minlength=len(program.pot_const)) > 0
    return RowSplit(
        admm,
        (local[copy_atom[hinge]], (np.cumsum(hinge_row) - 1)[copy_pot[hinge]],
         copy_coef[hinge], program.pot_const[hinge_row], program.pot_weight[hinge_row]),
        (local[atom[on]], coef[on], const[on], weight[on]),
        (local[atom[~on]], coef[~on], const[~on], weight[~on]))


# ---------------------------------------------------------------------------
# closed form for uncoupled blocks

TIE_RTOL = 1e-12  # slopes this close, relative, count as tied


def solve_uncoupled(rows: tuple, n: int, k: int, power: int) -> np.ndarray:
    """Exact MAP of n uncoupled blocks of k atoms: one row of k values each.

    rows are the blocks' one-atom rows (atom, coef, const, weight), ordered
    by atom and then by breakpoint (`split_rows`).  Atom j of a block
    carries rows w * max(0, c - a*x_j)**p with a = -coef > 0, so its
    energy f_j does not increase in x_j.  Rows with c > 0 and w > 0 are
    active below their breakpoint t = c/a; in that order, the
    breakpoints cut [0, max t] into segments, on each of which f_j is
    linear (p = 1) or quadratic (p = 2).  The block minimises the sum of
    its f_j subject to the k values summing to 1.

    Linear hinges: the unit mass fills segments greedily, steepest slope
    first (the part of each segment inside [0, 1]).  Slopes within
    TIE_RTOL of each other, relative, count as tied, and tied segments
    share the mass left for them in proportion to their lengths.

    Squared hinges: water-filling on the simplex multiplier nu.  Each atom
    takes the x_j at which -f_j'(x_j) has fallen to nu; the total is
    piecewise linear in nu with kinks at the segments' ends, so an exact
    search over the kinks and one linear interpolation give the nu at
    which it is 1.  No iteration, no tolerance.

    Both: mass left once every segment is full (every row is then
    satisfied) is spread equally over the block's k atoms.

    Each step runs on padded (blocks, k, rows) arrays and sums or sorts
    within one block only; the padding adds exact zeros, so a block's
    values do not depend on which other blocks share the call.
    """
    atom, coef, const, weight = rows
    active = (const > 0) & (weight > 0)
    cell, alpha, const = atom[active], -coef[active], const[active]
    t = const / alpha
    wa = weight[active] * alpha

    # each cell's rows right-aligned, zero padding in front
    counts = np.bincount(cell, minlength=n * k)
    width = max(1, int(counts.max(initial=0)))
    slot = width - counts[cell] + np.arange(len(cell)) - (np.cumsum(counts) - counts)[cell]

    def padded(values):
        out = np.zeros((n * k, width))
        out[cell, slot] = values
        return out.reshape(n, k, width)

    if power == 1:
        return _fill_greedy(padded(t), padded(wa))
    return _water_fill(padded(t), padded(2 * wa * const), padded(2 * wa * alpha))


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    """Each slot plus the slots after it, along the last axis (the padding
    in front is added last)."""
    return np.cumsum(x[..., ::-1], axis=-1)[..., ::-1]


def _left_ends(T: np.ndarray) -> np.ndarray:
    """Each segment's left end: the previous breakpoint, 0 for the first."""
    return np.concatenate([np.zeros(T.shape[:-1] + (1,)), T[..., :-1]], axis=-1)


def _atom_totals(per_segment: np.ndarray, k: int) -> np.ndarray:
    """Sum over each atom's segments, in order (exact with zero padding)."""
    n, m = per_segment.shape
    return np.cumsum(per_segment.reshape(n, k, m // k), axis=-1)[..., -1]


def _fill_greedy(T: np.ndarray, wa: np.ndarray) -> np.ndarray:
    """Linear hinges: breakpoints T and slopes w*a per row, (n, k, rows)."""
    n, k, r = T.shape
    Tc = np.minimum(T, 1.0)
    length = (Tc - _left_ends(Tc)).reshape(n, k * r)
    # a segment's slope is minus the rows active on it: its own and later
    slope = np.where(length > 0, -_suffix_sums(wa).reshape(n, k * r), 0.0)
    order = np.argsort(slope, axis=1, kind="stable")
    s = np.take_along_axis(slope, order, axis=1)
    L = np.take_along_axis(length, order, axis=1)
    cum = np.cumsum(L, axis=1)
    before = np.concatenate([np.zeros((n, 1)), cum[:, :-1]], axis=1)

    cols = np.arange(s.shape[1])
    starts = np.ones(s.shape, dtype=bool)
    starts[:, 1:] = s[:, 1:] - s[:, :-1] > TIE_RTOL * np.abs(s[:, :-1])
    ends = np.ones(s.shape, dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    first = np.maximum.accumulate(np.where(starts, cols, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends, cols, cols[-1])[:, ::-1], axis=1)[:, ::-1]
    used = np.take_along_axis(before, first, axis=1)
    group = np.take_along_axis(cum, last, axis=1) - used
    share = np.divide(1.0 - used, group, out=np.zeros_like(group), where=group > 0)

    filled = np.empty_like(L)
    np.put_along_axis(filled, order, L * np.clip(share, 0.0, 1.0), axis=1)
    leftover = np.maximum(1.0 - cum[:, -1], 0.0)
    return _atom_totals(filled, k) + leftover[:, None] / k


def _water_fill(T: np.ndarray, a_row: np.ndarray, b_row: np.ndarray) -> np.ndarray:
    """Squared hinges: breakpoints T, 2*w*a*c and 2*w*a*a per row, (n, k, rows).

    On a segment, -f_j'(x) = A - B*x with A and B summed over the rows
    active there.
    """
    n, k, r = T.shape
    A, B = (_suffix_sums(v).reshape(n, k * r) for v in (a_row, b_row))
    left = _left_ends(T).reshape(n, k * r)
    length = T.reshape(n, k * r) - left
    seg = length > 0

    def fills(nu):  # (n, m) multipliers -> (n, m, segments) mass per segment
        with np.errstate(divide="ignore", invalid="ignore"):
            x = (A[:, None, :] - nu[:, :, None]) / B[:, None, :] - left[:, None, :]
        return np.where(seg[:, None, :], np.clip(x, 0.0, length[:, None, :]), 0.0)

    # kinks: -f_j' at each segment's left end, and 0 at the last right end
    knots = np.concatenate([np.where(seg, A - B * left, 0.0), np.zeros((n, 1))], axis=1)
    total = np.cumsum(fills(knots), axis=-1)[..., -1]
    enough = total >= 1.0
    found = enough.any(axis=1)
    lo = np.argmax(np.where(enough, knots, -np.inf), axis=1)
    nu_lo = knots[np.arange(n), lo]
    above = knots > nu_lo[:, None]
    hi = np.argmin(np.where(above, knots, np.inf), axis=1)
    nu_hi = knots[np.arange(n), hi]
    s_lo, s_hi = total[np.arange(n), lo], total[np.arange(n), hi]
    # total is linear between neighbouring kinks
    step = np.divide((s_lo - 1.0) * (nu_hi - nu_lo), s_lo - s_hi,
                     out=np.zeros(n), where=above.any(axis=1) & (s_lo > s_hi))
    nu = np.where(found, nu_lo + step, 0.0)
    x = _atom_totals(fills(nu[:, None])[:, 0, :], k)
    leftover = np.where(found, 0.0, 1.0 - total[:, -1])
    return x + np.maximum(leftover, 0.0)[:, None] / k
