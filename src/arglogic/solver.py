"""MAP inference: consensus ADMM plus a brute-force grid oracle.

The ADMM treats each ground hinge potential and each simplex constraint
as a local term with private copies of its atoms; the consensus step
averages copies and clips to [0, 1].  The returned assignment is
projected block-wise onto the simplex so it is exactly feasible.
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
    # per component, indexed by GroundProgram.block_comp (ADMM only)
    component_iterations: np.ndarray = _empty(np.int64)
    component_converged: np.ndarray = _empty(bool)
    primal_residual: np.ndarray = _empty(float)
    dual_residual: np.ndarray = _empty(float)


def project_simplex(values) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) = 1}."""
    v = np.asarray(values, dtype=float)
    return kernels.project_rows(v[None, :])[0]


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
    if program.n_atoms == 0:
        return Assignment(np.empty(0), {}, 0.0, {}, converged=True)
    k = len(program.labels)
    z0 = np.full(program.n_atoms, 1.0 / k)
    result = kernels.solve_admm(
        program.copy_atom, program.copy_pot, program.copy_coef,
        program.pot_ptr, program.pot_const, program.pot_weight,
        program.pot_power, program.n_atoms, z0, params.rho, params.eps_abs,
        params.eps_rel, params.max_iters, np.repeat(program.block_comp, k))
    if result.nan_seen.any():
        raise FloatingPointError("ADMM produced NaN iterates")
    values = _finish(program, result.z)
    return Assignment(
        values=values,
        labels=_predict_labels(program, values),
        energy=energy(program, values),
        energy_shares=energy_by_pair(program, values),
        iterations=result.iterations,
        converged=bool(result.converged.all()),
        component_iterations=result.component_iterations,
        component_converged=result.converged,
        primal_residual=result.primal_residual,
        dual_residual=result.dual_residual,
    )


# ---------------------------------------------------------------------------
# brute-force grid oracle

MAX_GRID_PAIRS = 3


def simplex_grid(k: int, resolution: float) -> np.ndarray:
    """All points of the k-simplex with coordinates on a uniform grid,
    in ascending lexicographic order."""
    steps = int(round(1.0 / resolution))
    points = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            points.append(prefix + [remaining])
            return
        for i in range(remaining + 1):
            rec(prefix + [i], remaining - i, slots - 1)

    rec([], steps, k)
    return np.array(points, dtype=float) / steps


def solve_map_grid(program: GroundProgram, resolution: float = 0.05) -> Assignment:
    """Exhaustive minimization over discretized simplices.

    Independent of the ADMM path: evaluates every grid assignment's
    energy by tensor accumulation.  Guarded to small programs; ties
    resolve to the lexicographically first grid point.
    """
    nb = program.n_pairs
    if nb == 0:
        return Assignment(np.empty(0), {}, 0.0, {}, converged=True)
    if nb > MAX_GRID_PAIRS:
        raise ValidationError(
            f"grid oracle limited to {MAX_GRID_PAIRS} pairs, got {nb}")
    k = len(program.labels)
    grid = simplex_grid(k, resolution)
    n_points = len(grid)

    ptr = program.pot_ptr.tolist()
    atoms = program.copy_atom.tolist()
    coefs = program.copy_coef.tolist()
    total = np.zeros([n_points] * nb)
    for p in np.flatnonzero(program.pot_power > 0).tolist():
        expr = np.full([1] * nb, program.pot_const[p].item())
        for c in range(ptr[p], ptr[p + 1]):
            b, pos = divmod(atoms[c], k)
            shape = [1] * nb
            shape[b] = n_points
            expr = expr + coefs[c] * grid[:, pos].reshape(shape)
        total = total + (program.pot_weight[p].item()
                         * np.maximum(expr, 0.0) ** program.pot_power[p].item())

    flat = int(np.argmin(total.reshape(-1)))
    choice = np.unravel_index(flat, total.shape)
    values = grid[list(choice)].ravel()
    return Assignment(
        values=values,
        labels=_predict_labels(program, values),
        energy=energy(program, values),
        energy_shares=energy_by_pair(program, values),
        converged=True,
    )
