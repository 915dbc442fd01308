"""The consensus ADMM kernel, vectorized in numpy.

`solver.solve_map_admm` passes it only the pair blocks that it cannot
solve in closed form: in practice, those a chain row reaches.  Each hinge
potential holds private copies of its atoms, and so does each block's
simplex constraint.  One iteration applies every hinge row's proximal
update to its copies (a closed-form step) and projects each block's
simplex copies onto the simplex, takes the consensus z of each atom's
copies, and advances the scaled duals.

Consensus step (Boyd et al. 2011, §7.1, with a proximal term on z).
Each atom's z minimises delta/2·(z − 1/k)² + ρ/2·Σ(y + u − z)² over its
copies, on [0, 1], where delta is its component's proximal weight:
  z = clip((Σ(y + u) + delta/(ρk)) / (counts + delta/ρ), 0, 1).
At delta = 0 this is the copies' average and the iterates are plain
ADMM's, bit for bit: the added 0.0 can only turn a -0.0 sum into +0.0,
which the clip at 0 does anyway.  With delta > 0 a component solves its
hinge energy plus delta/2·‖z − 1/k‖², which is strongly convex: its
optimum is unique, so a linear-hinge component (an LP, whose optimum is
often a face) has one answer, independent of ρ and of the start, and
ADMM contracts to it in fewer iterations.  `_Working` holds counts + delta/ρ
and delta/(ρk) per atom, so the term costs one atom-sized add per
iteration.

Flat program layout (`grounding.GroundProgram` holds these arrays):
  copy_atom[m]   atom index of each hinge copy
  copy_pot[m]    owning hinge row of each copy
  copy_coef[m]   hinge coefficient of each copy
  pot_const[p]   hinge constant
  pot_weight[p]  row weight
  power          1 = linear hinges, 2 = squared hinges
  k              block width, 2 or 3: atoms b*k .. b*k + k - 1 sum to 1
  atom_comp[n]   optional component id of each atom (default: all 0)

Working layout: each copy-sized iterate is two arrays, one over the
caller's hinge copies and one simplex copy per atom, in atom order.  A
simplex copy's consensus value is its atom's z itself, so only the hinge
copies are gathered (z̃ = z[copy_atom]) and summed by `np.bincount`; each
atom's simplex term is added after its hinge sum, the order in which one
`bincount` over all copies would add it.  The simplex part is one
contiguous (blocks, k) array, projected in place without a gather.  A
component's residual sums add its hinge run, then its simplex run.

Buffers: u and v (both parts), z̃ and one scratch array (hinge-sized) and
one atom-sized scratch array are allocated once per working set and
written in place (`out=`).  v holds z̃ - u, which the hinge step and the
projection turn into y; the residual y - z̃ and the squares the stopping
test sums go to the scratch arrays.  Per iteration only row- and
atom-sized arrays are allocated.

One call solves any number of independent components.  A component is a
run of equal consecutive atom_comp values; its hinge rows, and so its
copies, form one contiguous run too, in the same order, and no row
touches atoms of two components (`grounding.join` builds this layout).
Every step of an iteration is elementwise, per row or per atom, and each
component's residuals are summed over its own copies and atoms only, so
its iterates and its stopping iteration are those it would have if
solved alone.  A component stops on its own residual test, at max_iters,
or on a NaN, and keeps the iterate it stopped at.  Stopped components
stay in the working arrays, their results ignored, until the copies
still running are at most 3/4 of those arrays; then the running
components' u and z are gathered, the other buffers released, and
`_Working.select` rebuilds the working set from the running components'
hinge rows with the same constructor, which derives every value per row,
atom or component.

Stopping test (Boyd et al. 2011, §3.3.1), per component with m copies:
r <= sqrt(m)·eps_abs + eps_rel·max(‖y‖, ‖z̃‖) and
s <= sqrt(m)·eps_abs + eps_rel·ρ·‖u‖, where z̃ is each copy's z.  Since
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
    """Euclidean projection of each row, of width 2 or 3, onto the simplex.

    The sort-based projection, with the sort done by a min/max network;
    the result is bit-identical to sorting.  The projection is written to
    out when it is given, which may be V itself.
    """
    k = V.shape[1]
    if k not in (2, 3):
        raise ValueError(f"rows of width 2 or 3 only, got width {k}")
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
    """The arrays one iteration reads, for a set of whole components.

    Built from the hinge copies and each row's const and weight, it
    derives each row's step t = clip(scale·s / den, 0, cap) of its value
    s = const + coef·v.  A copy-sized iterate is a hinge part over the
    hinge copies and a simplex part of one copy per atom, in atom order, in
    blocks of `width`.  atoms and comps map the local atom and component
    indices back to the caller's; delta is each local component's
    proximal weight.
    """

    def __init__(self, hinge_atom, hinge_pot, hinge_coef, const, weight, width, power,
                 atom_comp, atoms, comps, rho, eps_abs, delta):
        hinge_comp = atom_comp[hinge_atom]
        if np.any(np.diff(hinge_comp) < 0):
            raise ValueError("copies must be grouped by component, in atom order")
        self.hinge_atom, self.hinge_pot, self.hinge_coef = hinge_atom, hinge_pot, hinge_coef
        self.const, self.weight, self.width, self.power = const, weight, width, power
        self.rho, self.eps_abs = rho, eps_abs
        self.atom_comp, self.atoms, self.comps = atom_comp, atoms, comps
        norm2 = np.bincount(hinge_pot, weights=hinge_coef * hinge_coef, minlength=len(weight))
        # a scalar scale of 1 or cap of ∞ leaves t's bits as the per-row form
        if power == 1:
            self.scale, self.den = 1.0, np.where(norm2 > 0, norm2, np.inf)
            self.cap = weight / rho
        else:
            two_w = 2.0 * weight
            self.scale, self.den, self.cap = two_w, rho + two_w * norm2, np.inf

        n_atoms, n_comp = len(atom_comp), len(comps)
        self.n_hinge = len(hinge_pot)
        # every atom's hinge copies plus its simplex copy
        self.counts = (np.bincount(hinge_atom, minlength=n_atoms) + 1).astype(float)
        # per atom, the consensus step's denominator and the prox centre's share
        self.delta = delta
        atom_delta = delta[atom_comp]
        self.z_den = self.counts + atom_delta / rho
        self.z_bias = atom_delta / (rho * width)
        self.n_copies = (np.bincount(hinge_comp, minlength=n_comp)
                         + np.bincount(atom_comp, minlength=n_comp))
        self.abs_tol = np.sqrt(self.n_copies) * eps_abs
        self.atom_start = _starts(atom_comp)
        # one run of copies per component and part, the hinge runs first
        self.hinge_start = _starts(hinge_comp)
        self.run_comp = np.concatenate([hinge_comp[self.hinge_start],
                                        atom_comp[self.atom_start]])

    def per_copy(self, hinge, simplex):
        """Per-component sums over the copies, given their hinge and simplex
        parts: each component's hinge run plus its simplex run."""
        sums = np.concatenate([np.add.reduceat(hinge, self.hinge_start),
                               np.add.reduceat(simplex, self.atom_start)])
        return np.bincount(self.run_comp, weights=sums, minlength=len(self.comps))

    def per_atom(self, x):
        return np.add.reduceat(x, self.atom_start)

    def select(self, keep) -> "_Working":
        """The working set of the components where keep (local) holds."""
        keep_atom = keep[self.atom_comp]
        keep_hinge = keep_atom[self.hinge_atom]
        keep_row = np.zeros(len(self.const), dtype=bool)
        keep_row[self.hinge_pot[keep_hinge]] = True
        return _Working(
            (np.cumsum(keep_atom) - 1)[self.hinge_atom[keep_hinge]],
            (np.cumsum(keep_row) - 1)[self.hinge_pot[keep_hinge]],
            self.hinge_coef[keep_hinge], self.const[keep_row], self.weight[keep_row],
            self.width, self.power, (np.cumsum(keep) - 1)[self.atom_comp[keep_atom]],
            self.atoms[keep_atom], self.comps[keep], self.rho, self.eps_abs,
            self.delta[keep])


def _buffers(w, z):
    """The iteration's scratch arrays for working set w at consensus z:
    v's hinge and simplex parts, z̃ of the hinge copies, and one hinge- and
    one atom-sized scratch array."""
    return (np.empty(w.n_hinge), np.empty(len(z)), z[w.hinge_atom], np.empty(w.n_hinge),
            np.empty(len(z)))


def solve_admm(copy_atom, copy_pot, copy_coef, k, pot_const,
               pot_weight, power, n_atoms, z0, rho, eps_abs,
               eps_rel, max_iters, atom_comp=None, delta=0.0) -> AdmmResult:
    """Run ADMM from z0 until every component has stopped.

    n_atoms is a multiple of k, and a component holds whole blocks.  The
    per-component results are indexed by run of atom_comp, in atom order.
    delta >= 0 weighs the proximal term delta/2·‖z − 1/k‖² of the
    consensus step: one weight for every component, or one per run of
    atom_comp.  At 0 the iterates are those of plain ADMM.  Needs at least
    one atom.
    """
    if atom_comp is None:
        atom_comp = np.zeros(n_atoms, dtype=np.int64)
    atom_comp = np.cumsum(np.diff(atom_comp, prepend=atom_comp[0]) != 0)
    n_comp = int(atom_comp[-1]) + 1
    z_out = z0.astype(float).copy()
    iterations = np.zeros(n_comp, dtype=np.int64)
    r_out = np.full(n_comp, np.inf)
    s_out = np.full(n_comp, np.inf)
    converged = np.zeros(n_comp, dtype=bool)
    nan_out = np.zeros(n_comp, dtype=bool)
    delta = np.broadcast_to(np.asarray(delta, dtype=float), (n_comp,))

    w = _Working(copy_atom, copy_pot, copy_coef, pot_const, pot_weight, k, power,
                 atom_comp, np.arange(n_atoms), np.arange(n_comp), rho, eps_abs, delta)
    eps_rel_rho = eps_rel * rho
    running = np.ones(n_comp, dtype=bool)
    z = z_out.copy()
    u_h, u_s = np.zeros(w.n_hinge), np.zeros(n_atoms)
    v_h, v_s, z_h, scratch, temp = _buffers(w, z)
    for it in range(1, max_iters + 1):
        # v = z̃ - u; the hinge step and the projection then turn it into y
        np.subtract(z_h, u_h, out=v_h)
        np.subtract(z, u_s, out=v_s)
        np.multiply(w.hinge_coef, v_h, out=scratch)
        # each row's value s, then in place its step t
        t = np.bincount(w.hinge_pot, weights=scratch, minlength=len(w.const))
        np.add(w.const, t, out=t)
        np.multiply(w.scale, t, out=t)
        np.divide(t, w.den, out=t)
        np.minimum(np.maximum(t, 0.0, out=t), w.cap, out=t)
        # the indices are in range; "clip" lets take write straight to out
        t.take(w.hinge_pot, out=scratch, mode="clip")
        np.multiply(scratch, w.hinge_coef, out=scratch)
        np.subtract(v_h, scratch, out=v_h)
        v_rows = v_s.reshape(-1, w.width)
        project_rows(v_rows, out=v_rows)

        # consensus: each atom's hinge copies in order, then its simplex copy
        z_old = z
        np.add(v_h, u_h, out=scratch)
        z = np.bincount(w.hinge_atom, weights=scratch, minlength=len(z_old))
        z += np.add(v_s, u_s, out=temp)
        z += w.z_bias
        np.divide(z, w.z_den, out=z)
        np.minimum(np.maximum(z, 0.0, out=z), 1.0, out=z)
        z.take(w.hinge_atom, out=z_h, mode="clip")

        # the residual y - z̃ advances u, then its squares are summed
        np.subtract(v_h, z_h, out=scratch)
        np.subtract(v_s, z, out=temp)
        u_h += scratch
        u_s += temp
        r_norm = np.sqrt(w.per_copy(np.multiply(scratch, scratch, out=scratch),
                                    np.multiply(temp, temp, out=temp)))
        # z is clipped to [0, 1], so this sum is finite unless z holds a NaN
        zc2 = w.per_atom(w.counts * z * z)
        z_norm = np.sqrt(zc2)
        if it < max_iters and primal_ruled_out(r_norm, z_norm, w.abs_tol, eps_rel)[running].all():
            continue

        nan_seen = ~np.isfinite(zc2)
        dz = z - z_old
        s_norm = rho * np.sqrt(w.per_atom(w.counts * dz * dz))
        y_norm = np.sqrt(w.per_copy(np.multiply(v_h, v_h, out=scratch),
                                    np.multiply(v_s, v_s, out=temp)))
        u_norm = np.sqrt(w.per_copy(np.multiply(u_h, u_h, out=scratch),
                                    np.multiply(u_s, u_s, out=temp)))
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
        if 4 * live <= 3 * (w.n_hinge + len(z)):
            # gather the running components; the other buffers are released
            # before the new working set is built, and made anew at its size
            keep_atom = running[w.atom_comp]
            u_h, u_s, z = u_h[keep_atom[w.hinge_atom]], u_s[keep_atom], z[keep_atom]
            del v_h, v_s, z_h, scratch, temp, keep_atom
            w, running = w.select(running), running[running]
            v_h, v_s, z_h, scratch, temp = _buffers(w, z)

    return AdmmResult(z_out, int(iterations.sum()), iterations, r_out, s_out,
                      converged, nan_out)
