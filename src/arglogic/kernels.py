"""The consensus ADMM kernel, vectorized in numpy.

`solver.solve_map_admm` passes it only the pair blocks that it cannot
solve in closed form: in practice, those a chain row reaches.  Each hinge potential and each simplex row holds private
copies of its atoms.  One iteration applies every row's proximal update to its copies
(a closed-form hinge step, or a Euclidean projection onto the simplex),
averages the copies of each atom into the consensus z, clipped to
[0, 1], and advances the scaled duals.

Flat program layout (`grounding.GroundProgram` holds these arrays):
  copy_atom[m]   atom index of each local copy
  copy_pot[m]    owning potential of each copy
  copy_coef[m]   hinge coefficient of each copy (unused for simplex rows)
  pot_ptr[p+1]   copy ranges per potential
  pot_const[p]   hinge constant
  pot_weight[p]  potential weight
  pot_power[p]   0 = simplex indicator, 1 = linear hinge, 2 = squared hinge
  atom_comp[n]   optional component id of each atom (default: all 0)

One call solves any number of independent components.  A component is a
run of equal consecutive atom_comp values; its rows, and so its copies,
form one contiguous run too, in the same order, and no row touches atoms
of two components (`grounding.join` builds this layout).  Every step of an
iteration is elementwise, per row or per atom, and each component's
residuals are summed over its own runs only, so its iterates and its
stopping iteration are those it would have if solved alone.  A component
stops on its own residual test, at max_iters, or on a NaN, and keeps the
iterate it stopped at.  Stopped components stay in the working arrays,
their results ignored, until the copies still running are at most half
of those arrays; then the running ones are gathered into new arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# The benchmark stamps this name into every result it writes.
BACKEND = "numpy"


def project_rows(V: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex.

    Rows of width 2 or 3 are ordered by a min/max network instead of a
    sort; the cumulative sums and the threshold test are the same, so
    the result is bit-identical to the sort-based path.
    """
    k = V.shape[1]
    if k not in (2, 3):
        U = np.sort(V, axis=1)[:, ::-1]
        css = np.cumsum(U, axis=1) - 1.0
        ind = np.arange(1, k + 1, dtype=float)
        cond = U - css / ind > 0
        # last index where the condition holds
        rho = k - 1 - np.argmax(cond[:, ::-1], axis=1)
        theta = css[np.arange(len(V)), rho] / (rho + 1)
        return np.maximum(V - theta[:, None], 0.0)

    hi, lo = np.maximum(V[:, 0], V[:, 1]), np.minimum(V[:, 0], V[:, 1])
    if k == 2:
        cols = (hi, lo)
    else:
        mid = np.minimum(hi, V[:, 2])
        cols = (np.maximum(hi, V[:, 2]), np.maximum(lo, mid), np.minimum(lo, mid))
    run = cols[0]
    css = [run - 1.0]
    for c in cols[1:]:
        run = run + c
        css.append(run - 1.0)
    # theta from the last index whose test holds, or from the last index
    theta = css[-1] / k
    for j, (c, s) in enumerate(zip(cols, css)):
        theta = np.where(c - s / (j + 1) > 0, s / (j + 1), theta)
    return np.maximum(V - theta[:, None], 0.0)


class AdmmResult(NamedTuple):
    """What `solve_admm` returns; the arrays hold one entry per component."""

    z: np.ndarray  # each component's iterate at the iteration it stopped
    iterations: int  # summed over the components
    component_iterations: np.ndarray
    primal_residual: np.ndarray
    dual_residual: np.ndarray
    converged: np.ndarray
    nan_seen: np.ndarray


def _starts(ids: np.ndarray) -> np.ndarray:
    """First index of each run of a non-decreasing id array."""
    return np.flatnonzero(np.diff(ids, prepend=-1))


class _Working:
    """The arrays one iteration reads, for a set of whole components.

    atoms and comps map the local atom and component indices back to the
    caller's.
    """

    def __init__(self, copy_atom, copy_pot, copy_coef, pot_ptr, pot_const,
                 pot_weight, pot_power, atom_comp, atoms, comps, rho):
        self.copy_atom, self.copy_pot, self.copy_coef = copy_atom, copy_pot, copy_coef
        self.pot_ptr, self.pot_const = pot_ptr, pot_const
        self.pot_weight, self.pot_power = pot_weight, pot_power
        self.atom_comp, self.atoms, self.comps = atom_comp, atoms, comps
        self.rho = rho
        self.copy_comp = atom_comp[copy_atom]
        self.atom_start = _starts(atom_comp)
        self.copy_start = _starts(self.copy_comp)
        self.n_copies = np.diff(self.copy_start, append=len(copy_atom))
        self.sqrt_m = np.sqrt(self.n_copies)

        self.counts = np.bincount(copy_atom, minlength=len(atoms)).astype(float)
        self.hinge = pot_power > 0
        self.linear = pot_power == 1
        self.norm2 = np.bincount(copy_pot, weights=copy_coef * copy_coef,
                                 minlength=len(pot_const))
        self.w_over_rho = np.divide(pot_weight, rho)
        self.two_w = 2.0 * pot_weight
        self.t2_den = rho + self.two_w * self.norm2
        # simplex rows grouped into an index matrix (all have equal width)
        spot_ids = np.flatnonzero(~self.hinge)
        if len(spot_ids):
            widths = pot_ptr[spot_ids + 1] - pot_ptr[spot_ids]
            k = int(widths[0])
            assert np.all(widths == k), "simplex blocks must share a width"
            self.simplex_idx = np.stack([pot_ptr[spot_ids] + j for j in range(k)], axis=1)
        else:
            self.simplex_idx = np.empty((0, 0), dtype=int)

    def per_copy(self, x):
        return np.add.reduceat(x, self.copy_start)

    def per_atom(self, x):
        return np.add.reduceat(x, self.atom_start)

    def select(self, keep) -> "_Working":
        """The same arrays for the components where keep (local) holds."""
        keep_atom = keep[self.atom_comp]
        keep_copy = keep[self.copy_comp]
        keep_row = keep_copy[self.pot_ptr[:-1]]
        sizes = np.diff(self.pot_ptr)[keep_row]
        return _Working(
            (np.cumsum(keep_atom) - 1)[self.copy_atom[keep_copy]],
            (np.cumsum(keep_row) - 1)[self.copy_pot[keep_copy]],
            self.copy_coef[keep_copy],
            np.concatenate([[0], np.cumsum(sizes)]),
            self.pot_const[keep_row], self.pot_weight[keep_row],
            self.pot_power[keep_row],
            (np.cumsum(keep) - 1)[self.atom_comp[keep_atom]],
            self.atoms[keep_atom], self.comps[keep], self.rho)


def solve_admm(copy_atom, copy_pot, copy_coef, pot_ptr, pot_const,
               pot_weight, pot_power, n_atoms, z0, rho, eps_abs,
               eps_rel, max_iters, atom_comp=None) -> AdmmResult:
    """Run ADMM from z0 until every component has stopped.

    The per-component results are indexed by run of atom_comp, in atom
    order.  Needs at least one atom.
    """
    if atom_comp is None:
        atom_comp = np.zeros(n_atoms, dtype=np.int64)
    atom_comp = np.cumsum(np.diff(atom_comp, prepend=atom_comp[0]) != 0)
    if np.any(np.diff(atom_comp[copy_atom]) < 0):
        raise ValueError("copies must be grouped by component, in atom order")
    n_comp = int(atom_comp[-1]) + 1
    z_out = z0.astype(float).copy()
    iterations = np.zeros(n_comp, dtype=np.int64)
    r_out = np.full(n_comp, np.inf)
    s_out = np.full(n_comp, np.inf)
    converged = np.zeros(n_comp, dtype=bool)
    nan_out = np.zeros(n_comp, dtype=bool)

    w = _Working(copy_atom, copy_pot, copy_coef, pot_ptr, pot_const, pot_weight,
                 pot_power, atom_comp, np.arange(n_atoms), np.arange(n_comp), rho)
    running = np.ones(n_comp, dtype=bool)
    z = z_out.copy()
    u = np.zeros(len(copy_atom))
    for it in range(1, max_iters + 1):
        v = z[w.copy_atom] - u
        s_val = w.pot_const + np.bincount(w.copy_pot, weights=w.copy_coef * v,
                                          minlength=len(w.pot_const))
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.minimum(w.w_over_rho, np.where(w.norm2 > 0, s_val / w.norm2, 0.0))
            t2 = w.two_w * s_val / w.t2_den
        t = np.where(w.hinge & (s_val > 0), np.where(w.linear, t1, t2), 0.0)
        y = v - t[w.copy_pot] * w.copy_coef
        if w.simplex_idx.size:
            y[w.simplex_idx] = project_rows(v[w.simplex_idx])

        z_old = z
        acc = np.bincount(w.copy_atom, weights=y + u, minlength=len(z))
        z = np.clip(acc / w.counts, 0.0, 1.0)

        diff = y - z[w.copy_atom]
        u = u + diff
        r_norm = np.sqrt(w.per_copy(diff * diff))
        dz = z - z_old
        s_norm = rho * np.sqrt(w.per_atom(w.counts * dz * dz))

        # z is clipped to [0, 1], so this sum is finite unless z holds a NaN
        zc2 = w.per_atom(w.counts * z * z)
        nan_seen = ~np.isfinite(zc2)
        eps_pri = w.sqrt_m * eps_abs + eps_rel * np.maximum(
            np.sqrt(w.per_copy(y * y)), np.sqrt(zc2))
        eps_dua = w.sqrt_m * eps_abs + eps_rel * rho * np.sqrt(w.per_copy(u * u))
        done = (r_norm <= eps_pri) & (s_norm <= eps_dua) & ~nan_seen
        stop = running & (done | nan_seen | (it == max_iters))
        if not stop.any():
            continue

        ids = w.comps[stop]
        iterations[ids] = it
        r_out[ids] = r_norm[stop]
        s_out[ids] = s_norm[stop]
        converged[ids] = done[stop]
        nan_out[ids] = nan_seen[stop]
        frozen = stop[w.atom_comp]
        z_out[w.atoms[frozen]] = z[frozen]
        running &= ~stop
        live = int(w.n_copies[running].sum())
        if live == 0:
            break
        if 2 * live <= len(w.copy_atom):
            z, u = z[running[w.atom_comp]], u[running[w.copy_comp]]
            w, running = w.select(running), running[running]

    return AdmmResult(z_out, int(iterations.sum()), iterations, r_out, s_out,
                      converged, nan_out)
