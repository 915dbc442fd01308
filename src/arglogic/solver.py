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
private copies of its atoms, and the consensus step averages copies and
clips to [0, 1].  Components stay the node-connected ones the caller passes, and
each stops on the residuals of its ADMM blocks alone.  The returned
assignment is projected block-wise onto the simplex so it is exactly
feasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .grounding import GroundProgram, energy, energy_by_pair
from .model import ATTACK, NEUTRAL, SUPPORT, ValidationError

LABEL_PRIORITY = (NEUTRAL, ATTACK, SUPPORT)  # tie-break, most conservative first
TIE_TOL = 1e-9


@dataclass(frozen=True)
class SolverParams:
    rho: float = 1.0
    eps_abs: float = 1e-5
    eps_rel: float = 1e-4
    max_iters: int = 25_000

    def __post_init__(self):
        for name in ("rho", "eps_abs", "eps_rel", "max_iters"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"solver parameter {name} must be positive")


def _empty(dtype):
    return field(default_factory=lambda: np.zeros(0, dtype=dtype))


@dataclass
class Assignment:
    values: np.ndarray  # per free atom
    labels: dict[str, str]  # pair_id -> predicted relation
    energy: float
    energy_shares: dict[str, float]  # pair_id -> share of its component's energy
    iterations: int = 0  # summed over the program's components
    converged: bool = True  # every component converged
    # per component, indexed by GroundProgram.block_comp; ADMM blocks only
    component_iterations: np.ndarray = _empty(np.int64)
    component_converged: np.ndarray = _empty(bool)
    primal_residual: np.ndarray = _empty(float)
    dual_residual: np.ndarray = _empty(float)
    closed_form: np.ndarray = _empty(bool)  # per block: solved without ADMM


def _predict_labels(program: GroundProgram, values: np.ndarray) -> dict[str, str]:
    """Each pair's highest-valued relation; near-ties go to LABEL_PRIORITY."""
    labels = program.labels
    rows = values.reshape(program.n_pairs, len(labels))
    near_best = rows >= rows.max(axis=1, keepdims=True) - TIE_TOL
    order = [labels.index(rel) for rel in LABEL_PRIORITY if rel in labels]
    chosen = np.argmax(near_best[:, order], axis=1)
    return {pid: labels[order[c]]
            for pid, c in zip(program.block_pair_ids, chosen.tolist())}


def _finish(program: GroundProgram, raw_values: np.ndarray) -> np.ndarray:
    """Project each pair block exactly onto the simplex."""
    rows = np.asarray(raw_values, dtype=float).reshape(program.n_pairs, -1)
    return kernels.project_rows(rows).ravel()


def solve_map_admm(program: GroundProgram,
                   params: SolverParams = SolverParams()) -> Assignment:
    """MAP of the program: uncoupled blocks in closed form, the rest by one
    ADMM call.  The per-component results describe the ADMM blocks only; a
    component without any reports 0 iterations, zero residuals and
    converged."""
    if program.n_atoms == 0:
        return Assignment(np.empty(0), {}, 0.0, {}, converged=True)
    k = len(program.labels)
    exact = uncoupled_blocks(program)
    n_comp = int(program.block_comp.max()) + 1
    iterations = np.zeros(n_comp, dtype=np.int64)
    converged = np.ones(n_comp, dtype=bool)
    primal, dual = np.zeros(n_comp), np.zeros(n_comp)
    z = np.empty((program.n_pairs, k))
    if exact.any():
        z[exact] = solve_uncoupled(program, np.flatnonzero(exact))
    if not exact.all():
        sub = program.select(~exact) if exact.any() else program
        result = kernels.solve_admm(
            sub.copy_atom, sub.copy_pot, sub.copy_coef, k, sub.pot_const,
            sub.pot_weight, sub.power, sub.n_atoms, np.full(sub.n_atoms, 1.0 / k),
            params.rho, params.eps_abs, params.eps_rel, params.max_iters,
            np.repeat(sub.block_comp, k))
        if result.nan_seen.any():
            raise FloatingPointError("ADMM produced NaN iterates")
        z[~exact] = result.z.reshape(-1, k)
        # the kernel's results are per run of sub.block_comp
        comps = sub.block_comp[np.flatnonzero(np.diff(sub.block_comp, prepend=-1))]
        iterations[comps] = result.component_iterations
        converged[comps] = result.converged
        primal[comps] = result.primal_residual
        dual[comps] = result.dual_residual
    values = _finish(program, z)
    return Assignment(
        values=values,
        labels=_predict_labels(program, values),
        energy=energy(program, values),
        energy_shares=energy_by_pair(program, values),
        iterations=int(iterations.sum()),
        converged=bool(converged.all()),
        component_iterations=iterations,
        component_converged=converged,
        primal_residual=primal,
        dual_residual=dual,
        closed_form=exact,
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
