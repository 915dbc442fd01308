"""MAP inference: an exact solve for uncoupled pairs, consensus ADMM for
the rest.

A pair (block) is uncoupled when every hinge row on its atoms has one
copy, with a negative coefficient: then its energy is a sum of
non-increasing one-atom hinges, no row links it to another pair, and
its MAP over the simplex is a separable resource allocation solved in
closed form (`solve_uncoupled`).  With chains off every pair is
uncoupled; with chains on, every pair that no chain triple reaches.

The other blocks go to ADMM as one sub-program: each ground hinge
potential and each block's simplex constraint is a local term with
private copies of its atoms, and the consensus step averages copies,
pulls them toward 1/k by the proximal term delta/2·‖x − 1/k‖² and clips
to [0, 1].  So the closed-form blocks minimise the hinge energy exactly,
and the ADMM blocks minimise the hinge energy plus that term, whose
minimiser is unique: their labels do not depend on ρ or on where on a
face of optima ADMM would stop.  Each component's delta is
DELTA_PER_WEIGHT times the mean weight of its rows, so the term scales
with the hinges: multiplying every weight by a constant scales a
component's objective and leaves its minimiser where it was.  Reported
energies and shares are the plain hinge energy of the returned values.
Components stay the node-connected ones the caller passes, and each
stops on the residuals of its ADMM blocks alone.  The returned
assignment is projected block-wise onto the simplex so it is exactly
feasible.

ADMM runs at the penalty RHO = 1 and stops a component on the Boyd et
al. 2011 (§3.3.1) residual test with tolerances EPS_ABS = 1e-5 and
EPS_REL = 1e-4, or unconverged at MAX_ITERS = 25,000 iterations.  These
are constants of the solver, not options: no command or config sets
them, and `solve_map_admm` reads them when it is called.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .grounding import GroundProgram, energy, energy_by_pair
from .model import ATTACK, NEUTRAL, SUPPORT

LABEL_PRIORITY = (NEUTRAL, ATTACK, SUPPORT)  # tie-break, most conservative first
TIE_TOL = 1e-9
DELTA_PER_WEIGHT = 0.1  # an ADMM component's proximal weight per unit of mean row weight
RHO = 1.0  # ADMM's penalty
EPS_ABS, EPS_REL = 1e-5, 1e-4  # the stopping rule's absolute and relative tolerances
MAX_ITERS = 25_000  # a component still running here stops unconverged


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
    primal_residual: np.ndarray = _empty(float)
    dual_residual: np.ndarray = _empty(float)

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


def _finish(program: GroundProgram, raw_values: np.ndarray) -> np.ndarray:
    """Project each pair block exactly onto the simplex."""
    rows = np.asarray(raw_values, dtype=float).reshape(program.n_pairs, -1)
    return kernels.project_rows(rows).ravel()


def solve_map_admm(program: GroundProgram) -> Assignment:
    """MAP of the program: uncoupled blocks in closed form, the rest by one
    ADMM call.  The per-component results describe the ADMM blocks only; a
    component without any reports 0 iterations, zero residuals and
    converged."""
    if program.n_atoms == 0:
        return Assignment(np.empty(0), [], [], np.empty(0), np.empty(0))
    k = len(program.labels)
    exact = uncoupled_blocks(program)
    n_comp = program.n_components
    iterations = np.zeros(n_comp, dtype=np.int64)
    converged = np.ones(n_comp, dtype=bool)
    primal, dual = np.zeros(n_comp), np.zeros(n_comp)
    z = np.empty((program.n_pairs, k))
    if not exact.all():
        sub = program.select(~exact) if exact.any() else program
        comp = sub.block_comp
        # the kernel's results, and its delta, are per run of comp
        comps = comp[np.flatnonzero(np.diff(comp, prepend=-1))]
        row_comp = comp[sub.pot_block]
        mean_weight = (np.bincount(row_comp, weights=sub.pot_weight, minlength=n_comp)
                       / np.maximum(np.bincount(row_comp, minlength=n_comp), 1))
        # only the arrays the kernel reads stay held while it runs
        arrays = (sub.copy_atom, sub.copy_pot, sub.copy_coef, k, sub.pot_const,
                  sub.pot_weight, sub.power, sub.n_atoms, np.full(sub.n_atoms, 1.0 / k))
        del sub
        result = kernels.solve_admm(*arrays, RHO, EPS_ABS, EPS_REL, MAX_ITERS,
                                    np.repeat(comp, k), DELTA_PER_WEIGHT * mean_weight[comps])
        if result.nan_seen.any():
            raise FloatingPointError("ADMM produced NaN iterates")
        z[~exact] = result.z.reshape(-1, k)
        iterations[comps] = result.component_iterations
        converged[comps] = result.converged
        primal[comps] = result.primal_residual
        dual[comps] = result.dual_residual
    if exact.any():
        z[exact] = solve_uncoupled(program, np.flatnonzero(exact))
    values = _finish(program, z)
    row_energy = energy(program, values)
    return Assignment(
        values=values,
        pair_ids=program.block_pair_ids,
        predicted=_predict_labels(program, values),
        shares=energy_by_pair(program, row_energy),
        row_energy=row_energy,
        block_comp=program.block_comp,
        closed_form=exact,
        component_iterations=iterations,
        component_converged=converged,
        primal_residual=primal,
        dual_residual=dual,
    )


# ---------------------------------------------------------------------------
# closed form for uncoupled blocks

TIE_RTOL = 1e-12  # slopes this close, relative, count as tied


def uncoupled_blocks(program: GroundProgram) -> np.ndarray:
    """Per block: whether every hinge row on its atoms has one copy, with a
    negative coefficient."""
    simple = np.diff(program.pot_ptr) == 1
    simple[simple] = program.copy_coef[program.pot_ptr[:-1][simple]] < 0
    coupled = np.zeros(program.n_pairs, dtype=bool)
    coupled[program.copy_atom[~simple[program.copy_pot]] // len(program.labels)] = True
    return ~coupled


def solve_uncoupled(program: GroundProgram, blocks: np.ndarray) -> np.ndarray:
    """Exact MAP of the given uncoupled blocks: one row of k values each.

    Atom j of a block carries rows w * max(0, c - a*x_j)**p with a > 0, so
    its energy f_j does not increase in x_j.  Rows with c > 0 and w > 0
    are active below their breakpoint t = c/a; sorted by t, the
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
    k = len(program.labels)
    n = len(blocks)
    local = np.full(program.n_pairs, -1)
    local[blocks] = np.arange(n)
    rows = np.flatnonzero((program.pot_const > 0) & (program.pot_weight > 0))
    atom = program.copy_atom[program.pot_ptr[rows]]
    mine = local[atom // k] >= 0
    rows, atom = rows[mine], atom[mine]
    alpha = -program.copy_coef[program.pot_ptr[rows]]
    const, weight = program.pot_const[rows], program.pot_weight[rows]
    cell = local[atom // k] * k + atom % k
    t = const / alpha

    # each cell's rows in ascending t, right-aligned, zero padding in front
    order = np.lexsort((t, cell))
    cell, t = cell[order], t[order]
    wa = (weight * alpha)[order]
    counts = np.bincount(cell, minlength=n * k)
    width = max(1, int(counts.max(initial=0)))
    slot = width - counts[cell] + np.arange(len(cell)) - (np.cumsum(counts) - counts)[cell]

    def padded(values):
        out = np.zeros((n * k, width))
        out[cell, slot] = values
        return out.reshape(n, k, width)

    if program.power == 1:
        return _fill_greedy(padded(t), padded(wa))
    return _water_fill(padded(t), padded(2 * wa * const[order]),
                       padded(2 * wa * alpha[order]))


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
