"""Reference code that only tests use: the brute-force grid oracle, the
sort-based simplex projection of rows of any width, a predicate row as a
dict, and the JSONL reader that decodes every line with `json`."""

import json
import math

import numpy as np

from arglogic.grounding import GroundProgram, energy, energy_by_pair
from arglogic.model import ValidationError, _Reject, _walk
from arglogic.predicates import PREDICATE_NAMES
from arglogic.solver import Assignment, _predict_labels

MAX_GRID_PAIRS = 3


def project_rows_by_sort(V):
    """The sort-based simplex projection, row by row, of any width."""
    k = V.shape[1]
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - 1.0
    cond = U - css / np.arange(1, k + 1, dtype=float) > 0
    rho = k - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(len(V)), rho] / (rho + 1)
    return np.maximum(V - theta[:, None], 0.0)


def project_simplex(values) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) = 1}."""
    v = np.asarray(values, dtype=float)
    return project_rows_by_sort(v[None, :])[0]


def present(vector) -> dict[str, float]:
    """A predicate row's values that are not ABSENT, by predicate name."""
    return {name: v for name, v in zip(PREDICATE_NAMES, vector) if not math.isnan(v)}


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
        return Assignment(np.empty(0), [], [], np.empty(0), np.empty(0))
    if nb > MAX_GRID_PAIRS:
        raise ValidationError(
            f"grid oracle limited to {MAX_GRID_PAIRS} pairs, got {nb}")
    k = len(program.labels)
    grid = simplex_grid(k, resolution)
    n_points = len(grid)

    # each row's copies are one run of copy_pot
    ptr = np.searchsorted(program.copy_pot, np.arange(len(program.pot_const) + 1)).tolist()
    atoms = program.copy_atom.tolist()
    coefs = program.copy_coef.tolist()
    total = np.zeros([n_points] * nb)
    for p in range(len(program.pot_const)):
        expr = np.full([1] * nb, program.pot_const[p].item())
        for c in range(ptr[p], ptr[p + 1]):
            b, pos = divmod(atoms[c], k)
            shape = [1] * nb
            shape[b] = n_points
            expr = expr + coefs[c] * grid[:, pos].reshape(shape)
        total = total + (program.pot_weight[p].item()
                         * np.maximum(expr, 0.0) ** program.power)

    flat = int(np.argmin(total.reshape(-1)))
    choice = np.unravel_index(flat, total.shape)
    values = grid[list(choice)].ravel()
    row_energy = energy(program, values)
    return Assignment(
        values=values,
        pair_ids=program.block_pair_ids,
        predicted=_predict_labels(program, values),
        shares=energy_by_pair(program, row_energy),
        row_energy=row_energy,
    )


def read_jsonl_by_json(path, table):
    """`model.read_jsonl` as it read before orjson: every line decoded by a
    `json` decoder, each record read by the compiled check, and the walker
    reading what the check refuses.  It opens the file as UTF-8 too."""
    decode = json.JSONDecoder().raw_decode
    check = table.check
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record, end = decode(raw)
                if end < len(raw):
                    raise json.JSONDecodeError("Extra data", raw, end)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"malformed JSON: {exc}", lineno)
            try:
                value = check(record)
            except (_Reject, ValidationError):
                value = _walk(table, record, lineno, "field")
            yield lineno, value
