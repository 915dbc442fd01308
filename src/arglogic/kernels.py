"""The consensus ADMM kernel, vectorized in numpy.

`solver.solve_map_admm` passes it only the pair blocks that it cannot
solve in closed form: in practice, those a chain row reaches.  Each hinge
potential and each simplex row holds private copies of its atoms.  One
iteration applies every row's proximal update to its copies (a
closed-form hinge step, or a Euclidean projection onto the simplex),
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
residuals are summed over its own copies and atoms only, so its iterates
and its stopping iteration are those it would have if solved alone.  A
component stops on its own residual test, at max_iters, or on a NaN, and
keeps the iterate it stopped at.  Stopped components stay in the working
arrays, their results ignored, until the copies still running are at most
half of those arrays; then the running ones are gathered into new arrays.

Working layout: the kernel first partitions the rows stably, every hinge
row before every simplex row, and the copies follow their rows.  The hinge
step then reads only the hinge copies, and the simplex rows (all of one
width k) are one contiguous (rows, k) view, projected without a gather.
An atom's copies keep their relative order as long as, within each
component, no simplex row precedes a hinge row on the same atom (true of
every program `grounding` builds, where the partition is the identity
within a component), so the consensus sums, and with them every iterate,
are those of the caller's layout.

Stopping test (Boyd et al. 2011, §3.3.1), per component with m copies:
r <= sqrt(m)·eps_abs + eps_rel·max(‖y‖, ‖z̃‖) and
s <= sqrt(m)·eps_abs + eps_rel·ρ·‖u‖, where z̃ = z[copy_atom].  Since
y = z̃ + (y - z̃), ‖y‖ <= ‖z̃‖ + r, and ‖z̃‖ comes from the per-atom sum
of counts·z² that the NaN check reads anyway.  So while r exceeds
sqrt(m)·eps_abs + eps_rel·(‖z̃‖ + r) in every running component, no
component can stop on its test, and the iteration skips ‖y‖, ‖u‖ and
the dual residual.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# The benchmark stamps this name into every result it writes.
BACKEND = "numpy"

# Relative slack of the early-out bound, far above the rounding of the
# norms it compares, so the bound never rules out a passing test.
EARLY_OUT_MARGIN = 1e-9


def project_rows(V: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex.

    Rows of width 2 or 3 are ordered by a min/max network instead of a
    sort; the cumulative sums and the threshold test are the same, so
    the result is bit-identical to the sort-based path.  The projection
    is written to out when it is given.
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
        return np.maximum(V - theta[:, None], 0.0, out=out)

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
    # the threshold candidate css[j] / (j + 1) at each index j; the sort
    # path's test c - cand > 0 is c > cand for floats
    cand = [css[0]] + [s / (j + 1) for j, s in enumerate(css[1:], 1)]
    # theta from the last index whose test holds, or from the last index
    theta = cand[-1]
    for c, q in zip(cols, cand):
        theta = np.where(c > q, q, theta)
    return np.maximum(V - theta[:, None], 0.0, out=out)


class AdmmResult(NamedTuple):
    """What `solve_admm` returns; the arrays hold one entry per component."""

    z: np.ndarray  # each component's iterate at the iteration it stopped
    iterations: int  # summed over the components
    component_iterations: np.ndarray
    primal_residual: np.ndarray
    dual_residual: np.ndarray
    converged: np.ndarray
    nan_seen: np.ndarray


def primal_ruled_out(r, z_norm, abs_tol, eps_rel):
    """Where the primal test cannot pass, from r and ‖z̃‖ alone.

    The test is r <= abs_tol + eps_rel·max(‖y‖, ‖z̃‖) (`primal_passes`),
    and ‖y‖ <= ‖z̃‖ + r.  False wherever an operand is NaN."""
    return r > (abs_tol + eps_rel * (z_norm + r)) * (1.0 + EARLY_OUT_MARGIN)


def primal_passes(r, y_norm, z_norm, abs_tol, eps_rel):
    """Where the primal residual test passes."""
    return r <= abs_tol + eps_rel * np.maximum(y_norm, z_norm)


def _starts(ids: np.ndarray) -> np.ndarray:
    """First index of each run of a non-decreasing id array."""
    return np.flatnonzero(np.diff(ids, prepend=-1))


class _Working:
    """The arrays one iteration reads, for a set of whole components, in
    the hinge-then-simplex layout: copies [0, n_hinge) belong to the hinge
    rows, the rest to simplex rows of `width` copies each.

    Per hinge row: const, and the step t = clip(scale·s / den, 0, cap) of
    its value s = const + coef·v.  atoms and comps map the local atom and
    component indices back to the caller's.
    """

    def __init__(self, copy_atom, hinge_pot, hinge_coef, const, scale, den, cap,
                 width, atom_comp, atoms, comps, counts, n_copies, abs_tol):
        self.copy_atom, self.hinge_pot, self.hinge_coef = copy_atom, hinge_pot, hinge_coef
        self.const, self.scale, self.den, self.cap = const, scale, den, cap
        self.width = width
        self.atom_comp, self.atoms, self.comps = atom_comp, atoms, comps
        self.counts, self.n_copies, self.abs_tol = counts, n_copies, abs_tol
        self.n_hinge = n_hinge = len(hinge_pot)
        self.copy_comp = copy_comp = atom_comp[copy_atom]
        self.atom_start = _starts(atom_comp)
        # one run of copies per component and part, hinge runs first; the
        # runs of the second of two stacked copy arrays follow on from those
        runs = np.concatenate([_starts(copy_comp[:n_hinge]),
                               n_hinge + _starts(copy_comp[n_hinge:])])
        self.run_start, self.run_comp = runs, copy_comp[runs]
        self.pair_start = np.concatenate([runs, len(copy_atom) + runs])
        self.pair_comp = np.concatenate([self.run_comp, len(comps) + self.run_comp])

    @classmethod
    def partition(cls, copy_atom, copy_pot, copy_coef, pot_ptr, pot_const,
                  pot_weight, pot_power, atom_comp, rho, eps_abs) -> "_Working":
        """The caller's layout, rows stably partitioned hinge before simplex."""
        hinge = pot_power > 0
        copy_hinge = hinge[copy_pot]
        hinge_copies = np.flatnonzero(copy_hinge)
        order = np.concatenate([hinge_copies, np.flatnonzero(~copy_hinge)])
        hinge_pot = (np.cumsum(hinge) - 1)[copy_pot[hinge_copies]]
        hinge_coef = copy_coef[hinge_copies]

        weight, power = pot_weight[hinge], pot_power[hinge]
        norm2 = np.bincount(hinge_pot, weights=hinge_coef * hinge_coef,
                            minlength=len(weight))
        linear = power == 1
        two_w = 2.0 * weight
        scale = np.where(linear, 1.0, two_w)
        den = np.where(linear, np.where(norm2 > 0, norm2, np.inf), rho + two_w * norm2)
        cap = np.where(linear, np.divide(weight, rho), np.inf)

        widths = np.diff(pot_ptr)[~hinge]
        width = int(widths[0]) if len(widths) else 0
        if np.any(widths != width):
            raise ValueError("simplex rows must share a width")

        n_comp = int(atom_comp[-1]) + 1
        n_copies = np.bincount(atom_comp[copy_atom], minlength=n_comp)
        return cls(copy_atom[order], hinge_pot, hinge_coef, pot_const[hinge], scale,
                   den, cap, width, atom_comp,
                   np.arange(len(atom_comp)), np.arange(n_comp),
                   np.bincount(copy_atom, minlength=len(atom_comp)).astype(float),
                   n_copies, np.sqrt(n_copies) * eps_abs)

    def per_copy(self, x):
        """Per-component sums over the copies: the hinge run plus the
        simplex run."""
        return np.bincount(self.run_comp, weights=np.add.reduceat(x, self.run_start),
                           minlength=len(self.comps))

    def per_copy_pair(self, x):
        """per_copy of both rows of x, of shape (2, copies), in one call each."""
        n_comp = len(self.comps)
        sums = np.add.reduceat(x.ravel(), self.pair_start)
        return np.bincount(self.pair_comp, weights=sums, minlength=2 * n_comp).reshape(2, n_comp)

    def per_atom(self, x):
        return np.add.reduceat(x, self.atom_start)

    def select(self, keep) -> "_Working":
        """The same arrays for the components where keep (local) holds."""
        keep_atom = keep[self.atom_comp]
        keep_copy = keep[self.copy_comp]
        keep_hinge = keep_copy[:self.n_hinge]
        keep_row = np.zeros(len(self.const), dtype=bool)
        keep_row[self.hinge_pot[keep_hinge]] = True
        return _Working(
            (np.cumsum(keep_atom) - 1)[self.copy_atom[keep_copy]],
            (np.cumsum(keep_row) - 1)[self.hinge_pot[keep_hinge]],
            self.hinge_coef[keep_hinge],
            self.const[keep_row], self.scale[keep_row], self.den[keep_row],
            self.cap[keep_row], self.width,
            (np.cumsum(keep) - 1)[self.atom_comp[keep_atom]],
            self.atoms[keep_atom], self.comps[keep], self.counts[keep_atom],
            self.n_copies[keep], self.abs_tol[keep])


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

    w = _Working.partition(copy_atom, copy_pot, copy_coef, pot_ptr, pot_const,
                           pot_weight, pot_power, atom_comp, rho, eps_abs)
    eps_rel_rho = eps_rel * rho
    running = np.ones(n_comp, dtype=bool)
    z = z_out.copy()
    z_copy = z[w.copy_atom]  # z̃, gathered once per iteration
    u = np.zeros(len(copy_atom))
    y = np.empty_like(u)
    yu2 = np.empty((2, len(u)))
    for it in range(1, max_iters + 1):
        v = z_copy - u
        h = w.n_hinge
        v_hinge = v[:h]
        s_val = w.const + np.bincount(w.hinge_pot, weights=w.hinge_coef * v_hinge,
                                      minlength=len(w.const))
        t = np.minimum(np.maximum(w.scale * s_val / w.den, 0.0), w.cap)
        np.subtract(v_hinge, t[w.hinge_pot] * w.hinge_coef, out=y[:h])
        if w.width:
            project_rows(v[h:].reshape(-1, w.width), out=y[h:].reshape(-1, w.width))

        z_old = z
        acc = np.bincount(w.copy_atom, weights=y + u, minlength=len(z))
        z = np.minimum(np.maximum(acc / w.counts, 0.0), 1.0)
        z_copy = z[w.copy_atom]

        diff = y - z_copy
        u += diff
        r_norm = np.sqrt(w.per_copy(diff * diff))
        # z is clipped to [0, 1], so this sum is finite unless z holds a NaN
        zc2 = w.per_atom(w.counts * z * z)
        z_norm = np.sqrt(zc2)
        if it < max_iters and primal_ruled_out(r_norm, z_norm, w.abs_tol, eps_rel)[running].all():
            continue

        nan_seen = ~np.isfinite(zc2)
        dz = z - z_old
        s_norm = rho * np.sqrt(w.per_atom(w.counts * dz * dz))
        np.multiply(y, y, out=yu2[0])
        np.multiply(u, u, out=yu2[1])
        y_norm, u_norm = np.sqrt(w.per_copy_pair(yu2))
        done = (primal_passes(r_norm, y_norm, z_norm, w.abs_tol, eps_rel)
                & (s_norm <= w.abs_tol + eps_rel_rho * u_norm) & ~nan_seen)
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
            keep_copy = running[w.copy_comp]
            z, z_copy, u = z[running[w.atom_comp]], z_copy[keep_copy], u[keep_copy]
            y, yu2 = np.empty_like(u), np.empty((2, len(u)))
            w, running = w.select(running), running[running]

    return AdmmResult(z_out, int(iterations.sum()), iterations, r_out, s_out,
                      converged, nan_out)
