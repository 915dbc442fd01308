"""The consensus ADMM kernel, vectorized in numpy.

`solver.solve_map_admm` passes it only the pair blocks that it cannot
solve in closed form: in practice, those a chain row reaches.  Each hinge
row of several atoms holds private copies of its atoms, and so does each
block's simplex constraint.  A one-atom row (one copy, with a negative
coefficient: every logic rule and the prior ground as such rows) holds
none: its whole term is a function of one atom, so it enters that atom's
consensus step as a regulariser (Boyd et al. 2011, §7.1.1, global
consensus with a regulariser in the z-update).  One iteration applies
every hinge row's proximal update to its copies (a closed-form step),
projects each block's simplex copies onto the simplex, takes each atom's
consensus z from the over-relaxed copies, and advances the scaled duals.

Consensus step (Boyd et al. 2011, §7.1, with a proximal term on z).
Each atom's z minimises, on [0, 1],
  delta/2·(z − 1/k)² + ρ/2·Σ(ŷ + u − z)² + Σ_r w_r·max(0, c_r + a_r·z)^p
over its copies and its one-atom rows r (a_r < 0), where ρ and delta are
its component's penalty and proximal weight, and ŷ are the over-relaxed
copies below.  Without rows that is clip(M, 0, 1), with D = counts +
delta/ρ and
  M = (Σ(ŷ + u) + delta/(ρk)) / D.
Row r is active below its breakpoint t_r = c_r/|a_r|.  With the atom's rows
sorted by t, the rows from r on are the active ones between t_(r-1) and
t_r, where the minimiser would be the line α_r·M + β_r:
  linear hinges:  α_r = 1 and β_r = S_r/D, S_r the suffix sum of w·|a|/ρ;
  squared hinges: α_r = D/(D + Q_r) and β_r = P_r/(D + Q_r), Q_r and P_r
                  the suffix sums of q = 2w·a²/ρ and of q·t.
Each min(α_r·M + β_r, t_r) is at most the minimiser, and the segment that
holds it reaches it, so
  z = clip(max(M, max_r min(α_r·M + β_r, t_r)), 0, 1),
exact with tied breakpoints and with rows that are zero on [0, 1]
(c <= 0 or w = 0).  α, β and t are derived once per working set, the
suffix sums within each atom's rows, so an atom's terms are those it has
alone; an iteration gathers M per row and takes one `np.maximum.at`.

With delta = 0 a component solves its hinge energy by plain ADMM.  With
delta > 0 it solves its hinge energy plus delta/2·‖z − 1/k‖², which is
strongly convex: its optimum is unique, so a linear-hinge component (an
LP, whose optimum is often a face) has one answer, independent of ρ and
of the start, and ADMM contracts to it in fewer iterations.  `_Working`
holds D and delta/(ρk) per atom, so the term costs one atom-sized add per
iteration.

Each component runs at its own ρ, gathered once per working set to each
place it enters: a hinge row's cap w/ρ (linear) or denominator
ρ + 2w·‖a‖² (squared), an atom's D and delta/(ρk), a one-atom row's β
(and α and q), and the dual test.  The consensus step is over-relaxed
(Boyd et al. 2011, §3.4.3; Eckstein and Bertsekas 1992): it reads
ŷ = alpha·y + (1 − alpha)·z̃_old in place of each copy y, hinge and
simplex parts alike, where z̃_old is the copy's z before the step, and u
advances by ŷ − z̃.  alpha = 1 is plain ADMM.

Row layout (`solver.split_rows` splits a `grounding.GroundProgram` into
these, with atoms numbered within the blocks the kernel gets):
  copy_atom[m]   atom index of each hinge copy
  copy_pot[m]    owning hinge row of each copy
  copy_coef[m]   coefficient of each copy
  pot_const[p]   hinge row constant
  pot_weight[p]  hinge row weight
  one_atom       the one-atom rows (atom, coef, const, weight), ordered by
                 atom and then by breakpoint t = const/|coef|
  k              block width, 2 or 3: atoms b*k .. b*k + k - 1 sum to 1
  power          1 = linear hinges, 2 = squared hinges
  atom_comp[n]   component id of each atom
The kernel iterates on exactly these rows: the hinge step, the copy
counts and the residuals cover the hinge copies, and the one-atom rows
enter the consensus step in the order given, which each call checks.

Working layout: each copy-sized iterate is two arrays, one over the
hinge copies of the rows of several atoms and one simplex copy per atom,
in atom order.  A simplex copy's consensus value is its atom's z itself,
so only the hinge copies are gathered (z̃ = z[hinge_atom]) and summed by
`np.bincount`; each atom's simplex term is added after its hinge sum, the
order in which one `bincount` over all copies would add it.  The simplex
part is one contiguous (blocks, k) array, projected in place without a
gather.  A component's residual sums add its hinge run, then its simplex
run.

Buffers: u and v (both parts), z̃ and one scratch array (hinge-sized), one
atom-sized scratch array and the one-atom rows' candidates are allocated
once per working set and written in place (`out=`).  v holds z̃ - u,
which the hinge step and the projection turn into y; ŷ + u goes to the
scratch arrays, which the consensus step sums and which then give u its
new value ŷ + u - z̃; the residual y - z̃ and the squares the stopping test
sums go to the scratch arrays next.  Per iteration only row- and
atom-sized arrays are allocated.

One call solves any number of independent components.  A component is a
run of equal consecutive atom_comp values; its hinge rows, and so its
copies, form one contiguous run too, in the same order, and no row
touches atoms of two components (`grounding.join` builds this layout).
Every step of an iteration is elementwise, per row or per atom, and each
component's residuals are summed over its own copies and atoms only, so
its iterates and its stopping iteration are those it would have if
solved alone.  A component stops on its own residual test or at
max_iters, and keeps the iterate it stopped at; a NaN in a running
component's iterate raises FloatingPointError.  Stopped components
stay in the working arrays, their results ignored, until the copies
still running are at most 3/4 of those arrays; then the running
components' u and z are gathered, the buffers released, `_Working.select`
returns the running components' rows, the old working set is released,
and the constructor builds the new one from those rows, deriving every
value per row, atom or component.

Stopping test (Boyd et al. 2011, §3.3.1), per component with m copies:
r <= sqrt(m)·eps_abs + eps_rel·max(‖y‖, ‖z̃‖) and
s <= ρ·(sqrt(m)·eps_abs + eps_rel·‖u‖), where z̃ is each copy's z, r =
‖y − z̃‖ and s = ρ·‖Δz‖ over the copies.  With every weight, delta and ρ
scaled by one factor the iterates stay as they are and both sides of the
dual test scale by it, so, up to rounding, no stop decision depends on
the scale; by a power of two, exactly.  Since y = z̃ + (y - z̃),
‖y‖ <= ‖z̃‖ + r, and ‖z̃‖ comes from the per-atom sum of counts·z² that
the NaN check reads anyway.  So while r exceeds
sqrt(m)·eps_abs + eps_rel·(‖z̃‖ + r) in every running component, no
component can stop on its test, and the iteration skips ‖y‖, ‖u‖ and the
dual residual.
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
    out = np.subtract(V, theta[:, None], out=out)
    return np.maximum(out, 0.0, out=out)


class AdmmResult(NamedTuple):
    """What `solve_admm` returns; the arrays hold one entry per component."""

    z: np.ndarray  # each component's iterate at the iteration it stopped
    iterations: int  # summed over the components
    component_iterations: np.ndarray
    primal_residual: np.ndarray
    dual_residual: np.ndarray
    converged: np.ndarray


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


def _suffix_sums(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each entry of x plus the entries after it in its run, for runs that
    begin at starts (the first at 0).  The sums are taken from each run's
    end back, one depth at a time, so a run's sums are those it has alone,
    whatever the other runs hold."""
    out = x.copy()
    ends = np.append(starts, len(x))[1:]
    depth = np.repeat(ends - 1, ends - starts) - np.arange(len(x))
    order = np.argsort(depth, kind="stable")
    cuts = np.searchsorted(depth[order], np.arange(1, depth.max(initial=0) + 2))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        at = order[lo:hi]
        out[at] += out[at + 1]
    return out


def _sums(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """`np.bincount`'s weighted sums, as floats also over no weights (numpy
    then returns ints)."""
    return np.bincount(index, weights=weights, minlength=n).astype(float, copy=False)


class _Working:
    """The arrays one iteration reads, for a set of whole components.

    Built from the hinge copies, each hinge row's const and weight, and the
    one-atom rows (atom, coef, const, weight), ordered by atom and then by
    breakpoint (`solve_admm` checks the orders), it derives each hinge row's
    step t = clip(scale·s / den, 0, cap) of its value s = const + coef·v,
    and each one-atom row's breakpoint and slope terms of the consensus
    step.  A copy-sized iterate is a hinge part over the hinge copies and a
    simplex part of one copy per atom, in atom order, in blocks of
    `width`.  atoms and comps map the local atom and component indices back
    to the caller's; rho and delta are each local component's penalty and
    proximal weight.
    """

    def __init__(self, hinge_atom, hinge_pot, hinge_coef, const, weight, fold, width, power,
                 atom_comp, atoms, comps, rho, eps_abs, delta):
        hinge_comp = atom_comp[hinge_atom]
        self.hinge_atom, self.hinge_pot, self.hinge_coef = hinge_atom, hinge_pot, hinge_coef
        self.const, self.weight, self.width, self.power = const, weight, width, power
        self.rho, self.eps_abs = rho, eps_abs
        self.atom_comp, self.atoms, self.comps = atom_comp, atoms, comps
        norm2 = np.bincount(hinge_pot, weights=hinge_coef * hinge_coef, minlength=len(weight))
        # each hinge row's ρ, from the component of its copies
        row_rho = np.empty(len(weight))
        row_rho[hinge_pot] = rho[hinge_comp]
        # a scalar scale of 1 or cap of ∞ leaves t's bits as the per-row form
        if power == 1:
            self.scale, self.den = 1.0, np.where(norm2 > 0, norm2, np.inf)
            self.cap = weight / row_rho
        else:
            two_w = 2.0 * weight
            self.scale, self.den, self.cap = two_w, row_rho + two_w * norm2, np.inf

        n_atoms, n_comp = len(atom_comp), len(comps)
        self.n_hinge = len(hinge_pot)
        # every atom's hinge copies plus its simplex copy
        self.counts = (np.bincount(hinge_atom, minlength=n_atoms) + 1).astype(float)
        # per atom, the consensus step's denominator D and the prox centre's share
        self.delta = delta
        atom_rho, atom_delta = rho[atom_comp], delta[atom_comp]
        self.z_den = self.counts + atom_delta / atom_rho
        self.z_bias = atom_delta / (atom_rho * width)
        self._fold(fold, atom_rho)
        self.n_copies = (np.bincount(hinge_comp, minlength=n_comp)
                         + np.bincount(atom_comp, minlength=n_comp))
        self.abs_tol = np.sqrt(self.n_copies) * eps_abs
        self.atom_start = _starts(atom_comp)
        # one run of copies per component and part, the hinge runs first
        self.hinge_start = _starts(hinge_comp)
        self.run_comp = np.concatenate([hinge_comp[self.hinge_start],
                                        atom_comp[self.atom_start]])

    def _fold(self, fold, atom_rho):
        """The one-atom rows, each atom's given in ascending breakpoint
        t = const/|coef|, and their terms of the consensus step: a row's
        candidate is min(alpha·M + beta, t), and an atom's z is the largest
        of M and its rows' candidates, clipped to [0, 1]."""
        self.fold = self.fold_atom, coef, const, weight = fold
        self.fold_t = const / -coef
        starts = _starts(self.fold_atom)
        den = self.z_den[self.fold_atom]
        rho = atom_rho[self.fold_atom]
        if self.power == 1:
            self.fold_alpha = None  # α = 1
            self.fold_beta = _suffix_sums(weight * -coef / rho, starts) / den
        else:
            q = 2.0 * weight * coef * coef / rho
            den_q = den + _suffix_sums(q, starts)
            self.fold_alpha = den / den_q
            self.fold_beta = _suffix_sums(q * self.fold_t, starts) / den_q

    def fold_prox(self, z, cand):
        """Each atom's z from its consensus value M, in place: the minimiser
        over [0, 1] of ρ/2·D·(z − M)² plus its one-atom rows.  cand is a
        buffer of one entry per one-atom row."""
        z.take(self.fold_atom, out=cand, mode="clip")
        if self.fold_alpha is not None:
            np.multiply(cand, self.fold_alpha, out=cand)
        np.add(cand, self.fold_beta, out=cand)
        np.minimum(cand, self.fold_t, out=cand)
        np.maximum.at(z, self.fold_atom, cand)
        np.minimum(np.maximum(z, 0.0, out=z), 1.0, out=z)

    def per_copy(self, hinge, simplex):
        """Per-component sums over the copies, given their hinge and simplex
        parts: each component's hinge run plus its simplex run."""
        sums = np.concatenate([np.add.reduceat(hinge, self.hinge_start),
                               np.add.reduceat(simplex, self.atom_start)])
        return np.bincount(self.run_comp, weights=sums, minlength=len(self.comps))

    def per_atom(self, x):
        return np.add.reduceat(x, self.atom_start)

    def select(self, keep) -> tuple:
        """The constructor's arguments for the working set of the
        components where keep (local) holds, each array kept in its order."""
        keep_atom = keep[self.atom_comp]
        atom_index = np.cumsum(keep_atom) - 1
        keep_hinge = keep_atom[self.hinge_atom]
        keep_row = np.zeros(len(self.const), dtype=bool)
        keep_row[self.hinge_pot[keep_hinge]] = True
        keep_fold = keep_atom[self.fold_atom]
        fold = (atom_index[self.fold_atom[keep_fold]],) + tuple(a[keep_fold] for a in self.fold[1:])
        return (atom_index[self.hinge_atom[keep_hinge]],
                (np.cumsum(keep_row) - 1)[self.hinge_pot[keep_hinge]],
                self.hinge_coef[keep_hinge], self.const[keep_row], self.weight[keep_row],
                fold, self.width, self.power, (np.cumsum(keep) - 1)[self.atom_comp[keep_atom]],
                self.atoms[keep_atom], self.comps[keep], self.rho[keep], self.eps_abs,
                self.delta[keep])


def _buffers(w, z):
    """The iteration's scratch arrays for working set w at consensus z:
    v's hinge and simplex parts, z̃ of the hinge copies, one hinge- and one
    atom-sized scratch array, and the consensus step's candidates."""
    return (np.empty(w.n_hinge), np.empty(len(z)), z[w.hinge_atom], np.empty(w.n_hinge),
            np.empty(len(z)), np.empty(len(w.fold_t)))


def solve_admm(copy_atom, copy_pot, copy_coef, pot_const, pot_weight, one_atom, k, power,
               z0, rho, eps_abs, eps_rel, max_iters, atom_comp, delta, alpha) -> AdmmResult:
    """Run ADMM from z0 until every component has stopped.

    The rows come split as the layout above says; z0 holds whole blocks of
    k atoms, and a component whole blocks.  rho > 0 and delta >= 0 are
    each component's penalty and proximal weight, one per run of
    atom_comp, and the per-component results are indexed likewise, in atom
    order; alpha is the over-relaxation.  Needs at least one atom.  Raises
    FloatingPointError at the first NaN in a running component.
    """
    atom_comp = np.cumsum(np.diff(atom_comp, prepend=atom_comp[0]) != 0)
    if np.any(np.diff(atom_comp[copy_atom]) < 0):
        raise ValueError("copies must be grouped by component, in atom order")
    step = np.diff(one_atom[0])
    if np.any((step < 0) | ((step == 0) & (np.diff(one_atom[2] / -one_atom[1]) < 0))):
        raise ValueError("one-atom rows must be ordered by atom, then by breakpoint")
    del step
    n_atoms, n_comp = len(z0), int(atom_comp[-1]) + 1
    z_out = z0.astype(float).copy()
    iterations = np.zeros(n_comp, dtype=np.int64)
    r_out = np.full(n_comp, np.inf)
    s_out = np.full(n_comp, np.inf)
    converged = np.zeros(n_comp, dtype=bool)

    w = _Working(copy_atom, copy_pot, copy_coef, pot_const, pot_weight, one_atom, k, power,
                 atom_comp, np.arange(n_atoms), np.arange(n_comp), rho, eps_abs, delta)
    running = np.ones(n_comp, dtype=bool)
    z = z_out.copy()
    u_h, u_s = np.zeros(w.n_hinge), np.zeros(n_atoms)
    v_h, v_s, z_h, scratch, temp, cand = _buffers(w, z)
    for it in range(1, max_iters + 1):
        # v = z̃ - u; the hinge step and the projection then turn it into y
        np.subtract(z_h, u_h, out=v_h)
        np.subtract(z, u_s, out=v_s)
        np.multiply(w.hinge_coef, v_h, out=scratch)
        # each row's value s, then in place its step t
        t = _sums(w.hinge_pot, scratch, len(w.const))
        np.add(w.const, t, out=t)
        np.multiply(w.scale, t, out=t)
        np.divide(t, w.den, out=t)
        np.minimum(np.maximum(t, 0.0, out=t), w.cap, out=t)
        # the indices are in range; "clip" lets take write straight to out
        t.take(w.hinge_pot, out=scratch, mode="clip")
        del t  # before the projection, where an iteration's memory peaks
        np.multiply(scratch, w.hinge_coef, out=scratch)
        np.subtract(v_h, scratch, out=v_h)
        v_rows = v_s.reshape(-1, w.width)
        project_rows(v_rows, out=v_rows)

        # consensus over ŷ + u, ŷ = z̃ + alpha·(y - z̃) the over-relaxed
        # copies: M from each atom's hinge copies in order, then its simplex
        # copy; then the largest of M and its one-atom rows' candidates
        z_old = z
        np.subtract(v_h, z_h, out=scratch)
        scratch *= alpha
        scratch += z_h
        scratch += u_h
        z = _sums(w.hinge_atom, scratch, len(z_old))
        np.subtract(v_s, z_old, out=temp)
        temp *= alpha
        temp += z_old
        temp += u_s
        z += temp
        z += w.z_bias
        np.divide(z, w.z_den, out=z)
        w.fold_prox(z, cand)
        z.take(w.hinge_atom, out=z_h, mode="clip")

        # u advances to ŷ + u - z̃; then the residual y - z̃'s squares are summed
        np.subtract(scratch, z_h, out=u_h)
        np.subtract(temp, z, out=u_s)
        np.subtract(v_h, z_h, out=scratch)
        np.subtract(v_s, z, out=temp)
        r_norm = np.sqrt(w.per_copy(np.multiply(scratch, scratch, out=scratch),
                                    np.multiply(temp, temp, out=temp)))
        # z is clipped to [0, 1], so this sum is finite unless z holds a NaN
        zc2 = w.per_atom(w.counts * z * z)
        z_norm = np.sqrt(zc2)
        if it < max_iters and primal_ruled_out(r_norm, z_norm, w.abs_tol, eps_rel)[running].all():
            continue

        # a NaN fails the early-out's bound, so the first one is seen here
        if not np.isfinite(zc2[running]).all():
            raise FloatingPointError("ADMM produced NaN iterates")
        dz = z - z_old
        s_norm = w.rho * np.sqrt(w.per_atom(w.counts * dz * dz))
        y_norm = np.sqrt(w.per_copy(np.multiply(v_h, v_h, out=scratch),
                                    np.multiply(v_s, v_s, out=temp)))
        u_norm = np.sqrt(w.per_copy(np.multiply(u_h, u_h, out=scratch),
                                    np.multiply(u_s, u_s, out=temp)))
        done = (primal_passes(r_norm, y_norm, z_norm, w.abs_tol, eps_rel)
                & (s_norm <= w.rho * (w.abs_tol + eps_rel * u_norm)))
        stop = running & (done | (it == max_iters))
        if not stop.any():
            continue

        ids = w.comps[stop]
        iterations[ids] = it
        r_out[ids] = r_norm[stop]
        s_out[ids] = s_norm[stop]
        converged[ids] = done[stop]
        frozen = stop[w.atom_comp]
        z_out[w.atoms[frozen]] = z[frozen]
        running &= ~stop
        live = int(w.n_copies[running].sum())
        if live == 0:
            break
        if 4 * live <= 3 * (w.n_hinge + len(z)):
            # gather the running components; the other buffers and then the
            # old working set are released before the new one is built, and
            # the buffers made anew at its size
            keep_atom = running[w.atom_comp]
            u_h, u_s, z = u_h[keep_atom[w.hinge_atom]], u_s[keep_atom], z[keep_atom]
            del v_h, v_s, z_h, scratch, temp, cand, keep_atom, z_old, dz
            args = w.select(running)
            del w
            w, running = _Working(*args), running[running]
            del args
            v_h, v_s, z_h, scratch, temp, cand = _buffers(w, z)

    return AdmmResult(z_out, int(iterations.sum()), iterations, r_out, s_out, converged)
