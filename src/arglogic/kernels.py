"""The consensus ADMM kernel, vectorized in numpy.

Each hinge potential and each simplex row holds private copies of its
atoms.  One iteration applies every row's proximal update to its copies
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
"""

from __future__ import annotations

import math

import numpy as np

# The benchmark stamps this name into every result it writes.
BACKEND = "numpy"


def project_rows(V: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    k = V.shape[1]
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - 1.0
    ind = np.arange(1, k + 1, dtype=float)
    cond = U - css / ind > 0
    # last index where the condition holds
    rho = k - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(len(V)), rho] / (rho + 1)
    return np.maximum(V - theta[:, None], 0.0)


def solve_admm(copy_atom, copy_pot, copy_coef, pot_ptr, pot_const,
               pot_weight, pot_power, n_atoms, z0, rho, eps_abs,
               eps_rel, max_iters):
    """Run ADMM from z0; returns (z, iterations, primal residual,
    dual residual, converged, NaN seen)."""
    m = len(copy_atom)
    n_pots = len(pot_const)
    z = z0.astype(float).copy()
    u = np.zeros(m)
    y = z[copy_atom].copy()

    counts = np.bincount(copy_atom, minlength=n_atoms).astype(float)
    hinge = pot_power > 0
    norm2 = np.bincount(copy_pot, weights=copy_coef * copy_coef, minlength=n_pots)
    w_over_rho = np.divide(pot_weight, rho)
    sqrt_m = math.sqrt(m)

    # simplex potentials grouped into an index matrix (all have equal width)
    spot_ids = np.nonzero(~hinge)[0]
    if len(spot_ids):
        widths = pot_ptr[spot_ids + 1] - pot_ptr[spot_ids]
        k = int(widths[0])
        assert np.all(widths == k), "simplex blocks must share a width"
        simplex_idx = np.stack([pot_ptr[spot_ids] + j for j in range(k)], axis=1)
    else:
        simplex_idx = np.empty((0, 0), dtype=int)

    it = 0
    r_norm = s_norm = float("inf")
    converged = False
    for it in range(1, max_iters + 1):
        v = z[copy_atom] - u
        s_val = pot_const + np.bincount(copy_pot, weights=copy_coef * v,
                                        minlength=n_pots)
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.minimum(w_over_rho, np.where(norm2 > 0, s_val / norm2, 0.0))
            t2 = 2.0 * pot_weight * s_val / (rho + 2.0 * pot_weight * norm2)
        t = np.where(hinge & (s_val > 0),
                     np.where(pot_power == 1, t1, t2), 0.0)
        y = v - t[copy_pot] * copy_coef
        if simplex_idx.size:
            y[simplex_idx] = project_rows(v[simplex_idx])

        z_old = z
        acc = np.bincount(copy_atom, weights=y + u, minlength=n_atoms)
        z = np.clip(acc / counts, 0.0, 1.0)

        diff = y - z[copy_atom]
        u = u + diff
        r_norm = float(np.linalg.norm(diff))
        dz = z - z_old
        s_norm = rho * math.sqrt(float(np.sum(counts * dz * dz)))

        if not np.isfinite(z).all():
            return z, it, r_norm, s_norm, False, True

        zc_norm = math.sqrt(float(np.sum(counts * z * z)))
        eps_pri = sqrt_m * eps_abs + eps_rel * max(float(np.linalg.norm(y)), zc_norm)
        eps_dua = sqrt_m * eps_abs + eps_rel * rho * float(np.linalg.norm(u))
        if r_norm <= eps_pri and s_norm <= eps_dua:
            converged = True
            break

    return z, it, r_norm, s_norm, converged, False
